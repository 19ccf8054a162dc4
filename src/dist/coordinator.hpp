// dynamo/dist/coordinator.hpp
//
// The campaign coordinator behind `dynamo coordinate`: owns the single
// authoritative expansion of the manifest, hands out leases over point
// indices to pulling workers (dist/lease_table.hpp), and persists every
// accepted result through the SAME cache + checkpoint machinery a local
// `dynamo campaign` run uses — which is what makes the two execution
// modes interchangeable:
//
//   * placement independence — expansion is always the FULL manifest,
//     so index i's parameters and injected RNG substream are identical
//     no matter which worker computes it; the final artifact is
//     rendered through render_campaign_json with the unsharded 0/1
//     layout and is byte-identical to `dynamo campaign` on the same
//     manifest (acceptance-gated in CI with `cmp`);
//   * crash safety — results are cache.store()d and checkpoint-marked
//     the moment they are accepted (the settle-time contract of
//     scenario/campaign.hpp), and the checkpoint fingerprint is the
//     shared campaign_fingerprint — so a killed coordinator resumes
//     under `dynamo coordinate` OR `dynamo campaign`, and vice versa;
//   * cache warmth — a coordinated run warms the same content-addressed
//     cache CLI runs read, so re-running distributes zero points.
//
// Completion means settled AND drained. Once every point has settled,
// each reply to a named worker says `done` (dist/protocol.hpp), and the
// coordinator records, per worker name, when it last heard from it and
// whether it has been told. complete() turns true only when every
// worker it has heard from was told `done` or has been silent for a
// lease TTL (a worker killed while idle) — so a server that stops on
// complete() never leaves a live worker to find the end of the campaign
// through connection-refused retries.
//
// Like CampaignService, handle() is pure request -> response routing
// with an INJECTED clock (now_ms) and no socket anywhere — the whole
// protocol, including lease expiry, drain and kill-and-resume, is
// testable in process (tests/test_dist.cpp); `dynamo coordinate` is
// HttpServer + this class + a steady_clock.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "dist/lease_table.hpp"
#include "scenario/campaign.hpp"
#include "scenario/checkpoint.hpp"
#include "service/http.hpp"

#include <memory>

namespace dynamo::dist {

struct CoordinatorOptions {
    std::string cache_dir = ".dynamo-cache";
    std::string checkpoint;  ///< optional crash-safe ledger (strongly recommended)
    bool force = false;      ///< skip cache lookups (checkpointed points still served)
    std::uint64_t lease_ttl_ms = 10000;
    std::size_t batch = 4;   ///< max indices per lease
    std::ostream* progress = nullptr;  ///< campaign-progress JSONL (same records as local)
    int code_epoch = scenario::kCodeEpoch;  ///< injectable for tests
};

class CampaignCoordinator {
  public:
    /// Expands the manifest, satisfies what it can from checkpoint +
    /// cache (exactly run_campaign's serial pass 1, including the
    /// "--force keeps checkpointed work" rule), and queues the rest for
    /// leasing. `manifest_text` is the raw document served verbatim at
    /// GET /manifest so workers expand the coordinator's exact grid.
    /// Throws on infrastructure errors (unknown scenario, bad
    /// checkpoint) — never because of point-level failures.
    CampaignCoordinator(scenario::Manifest manifest, std::string manifest_text,
                        CoordinatorOptions options);

    /// Route one request at injected time `now_ms` (monotonic,
    /// millisecond). Never throws: malformed bodies 400, wrong-campaign
    /// completions 409, dead leases 410. Thread-safe.
    service::HttpResponse handle(const service::HttpRequest& request, std::uint64_t now_ms);

    /// True once every point has settled (workers are told "done").
    bool settled() const;

    /// True once settled() and drained at `now_ms`: every worker seen
    /// on /lease, /heartbeat or /complete was told "done" or has been
    /// silent since at least now_ms - lease_ttl_ms. A coordinator born
    /// settled (warm cache/checkpoint) has seen no worker and is
    /// complete at once.
    bool complete(std::uint64_t now_ms) const;

    /// complete(now_ms) at the latest time handle() was called with.
    bool complete() const;

    /// Mismatching duplicate completions observed (complete() campaigns
    /// with conflicts must fail loudly — `dynamo coordinate` exits 4).
    std::size_t conflicts() const;

    /// The campaign outcome so far (counts + points). Only meaningful
    /// for rendering once complete(); safe to call any time for status.
    const scenario::CampaignOutcome& outcome() const noexcept { return outcome_; }

    /// The final campaign JSON — render_campaign_json through
    /// CampaignOutcome::to_json, i.e. the byte-identical unsharded
    /// artifact. Call once complete().
    std::string artifact() const { return outcome_.to_json(manifest_); }

    std::string fingerprint_hex() const;
    std::size_t total_points() const noexcept { return specs_.size(); }
    std::size_t settled_points() const;
    const scenario::Manifest& manifest() const noexcept { return manifest_; }

    /// One-line human summary (the standard campaign summary plus
    /// fabric counters), for the CLI's final print.
    std::string summary() const;

  private:
    service::HttpResponse handle_locked(const service::HttpRequest& request,
                                        std::uint64_t now_ms);
    service::HttpResponse lease(const std::string& body, std::uint64_t now_ms);
    service::HttpResponse heartbeat(const std::string& body, std::uint64_t now_ms);
    service::HttpResponse completion(const std::string& body, std::uint64_t now_ms);
    service::HttpResponse status(std::uint64_t now_ms);

    /// Persist + record one accepted result for global index
    /// `spec_index` (cache store for exit 0, checkpoint mark, progress
    /// emit, outcome bookkeeping).
    void settle_accepted(std::size_t spec_index, scenario::CachedResult result);

    /// Record a reply to worker `name` at `now_ms`; `done` when the
    /// reply told it the campaign is over.
    void saw_worker(const std::string& name, std::uint64_t now_ms, bool done);
    bool complete_locked(std::uint64_t now_ms) const;

    struct SeenWorker {
        std::uint64_t last_seen_ms = 0;
        bool told_done = false;
    };

    scenario::Manifest manifest_;
    std::string manifest_text_;
    CoordinatorOptions options_;
    scenario::ResultCache cache_;
    int epoch_ = 0;
    std::uint64_t fingerprint_ = 0;
    std::vector<scenario::PointSpec> specs_;
    std::vector<std::size_t> slot_of_index_;  ///< global index -> outcome_.points slot
    scenario::CampaignOutcome outcome_;
    std::unique_ptr<scenario::CampaignCheckpoint> checkpoint_;
    scenario::CampaignProgressEmitter progress_;
    std::unique_ptr<LeaseTable> table_;
    std::map<std::string, SeenWorker> workers_;  ///< by worker name
    std::uint64_t latest_now_ms_ = 0;            ///< max now_ms handle() has seen
    mutable std::mutex mutex_;
};

} // namespace dynamo::dist
