// dynamo/dist/worker.hpp
//
// The pulling worker behind `dynamo work`: fetch the manifest once,
// expand it locally (global indices => identical parameters and RNG
// substreams everywhere — the placement-independence invariant), then
// loop lease -> compute -> complete until the coordinator says done.
//
// Fault model:
//   * the normal end is a reply saying `done` — on /lease, on /complete
//     (the worker that settles the last point exits without another
//     lease), or on a heartbeat (the in-flight batch is redundant: the
//     worker finishes computing it and exits without posting it). The
//     coordinator keeps serving until every worker it has seen heard
//     `done` or went silent for a lease TTL (dist/coordinator.hpp);
//   * a "wait" reply (all remaining work is out on other leases) is
//     re-polled after 1, 2, 4, ... ms, doubling up to poll_ms; a grant
//     resets the ramp. The short first steps hear `done` soon after
//     the last lease settles; the cap bounds the load of a long wait;
//   * transient transport failures retry with capped exponential
//     backoff + jitter (dist/backoff.hpp); once retries are exhausted
//     AFTER the coordinator was ever reachable, the worker concludes
//     the coordinator shut down and exits CLEANLY. This is the fallback
//     for a coordinator that died or stopped before this worker heard
//     `done` — it must not fail worker jobs;
//   * a coordinator that was NEVER reachable is an error (bad URL,
//     nothing listening) — the worker exits nonzero;
//   * while computing a batch, a background heartbeat renews the lease
//     every ttl/3 ms; heartbeat failures are deliberately IGNORED (the
//     lease expiring merely requeues the work — the eventual
//     completion resolves as first-valid-wins or a benign duplicate);
//   * a 409 on /complete means the coordinator is running a DIFFERENT
//     campaign than the manifest this worker fetched (restarted with a
//     new manifest mid-run) — the worker exits nonzero rather than
//     keep computing points nobody wants.
//
// Socketless by construction: the loop talks through an injected
// Transport function and sleeps through an injected Sleeper, so every
// branch above is unit-testable with a scripted fake (test_dist.cpp);
// `dynamo work` injects dist/http_client.hpp and a real sleep.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>

#include "dist/backoff.hpp"
#include "dist/http_client.hpp"
#include "util/parallel.hpp"

namespace dynamo::dist {

enum class WorkerExit {
    CampaignComplete = 0,    ///< coordinator said done — clean exit
    CoordinatorShutdown,     ///< lost after successful contact — clean exit
    Unreachable,             ///< never reached the coordinator — error
    CampaignMismatch,        ///< fingerprint 409 — error
    ProtocolError,           ///< unparseable reply / unknown scenario — error
};

/// True for the exits `dynamo work` maps to status 0.
inline bool worker_exit_clean(WorkerExit exit) noexcept {
    return exit == WorkerExit::CampaignComplete || exit == WorkerExit::CoordinatorShutdown;
}

const char* to_string(WorkerExit exit) noexcept;

/// Sleep before re-polling after the `wait`-th consecutive "wait" reply
/// (0-based): 1, 2, 4, ... ms, capped at `poll_ms`. The cap is at least
/// 1 ms, so poll_ms == 0 polls every millisecond instead of spinning.
inline std::uint64_t wait_poll_delay_ms(std::uint64_t poll_ms, unsigned wait) noexcept {
    const std::uint64_t cap = std::max<std::uint64_t>(poll_ms, 1);
    return wait >= 63 ? cap : std::min<std::uint64_t>(cap, std::uint64_t{1} << wait);
}

struct WorkerOptions {
    std::string name = "worker";
    std::size_t capacity = 4;      ///< points requested per lease
    std::uint64_t poll_ms = 200;   ///< cap of the "wait" poll ramp (0 acts as 1)
    BackoffPolicy backoff;         ///< transient-failure retry schedule
    bool heartbeats = true;        ///< disable only in single-threaded tests
    ThreadPool* pool = nullptr;    ///< intra-batch parallelism; may be null
    std::ostream* log = nullptr;   ///< optional human-readable progress lines
};

class WorkerLoop {
  public:
    /// One round trip to the coordinator; empty optional on transport
    /// failure (exactly http_request's contract).
    using Transport = std::function<std::optional<HttpClientResponse>(
        const std::string& method, const std::string& target, const std::string& body)>;
    using Sleeper = std::function<void(std::uint64_t ms)>;

    /// `transport` MUST be callable from a second thread while the main
    /// loop computes (the heartbeat); pass heartbeats=false to keep a
    /// test fake single-threaded.
    WorkerLoop(Transport transport, WorkerOptions options, Sleeper sleeper = {});

    /// Run to one of the terminal states. Call once.
    WorkerExit run();

    std::size_t points_computed() const noexcept { return points_computed_; }
    std::size_t leases_completed() const noexcept { return leases_completed_; }
    std::size_t retries() const noexcept { return retries_; }

  private:
    /// Transport with the retry/backoff policy applied; empty optional
    /// after max_attempts consecutive transport failures.
    std::optional<HttpClientResponse> request(const std::string& method,
                                              const std::string& target,
                                              const std::string& body);

    Transport transport_;
    WorkerOptions options_;
    Sleeper sleeper_;
    bool had_contact_ = false;
    std::size_t points_computed_ = 0;
    std::size_t leases_completed_ = 0;
    std::size_t retries_ = 0;
};

} // namespace dynamo::dist
