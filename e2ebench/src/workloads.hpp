// e2ebench/src/workloads.hpp
//
// The four workloads and the helpers they share. Each workload fills an
// Outcome: with config.trace off, every end-to-end metric (untraced
// passes repeated for config.seconds, each metric's median pass reported);
// with it on, every per-layer metric (one untraced and one traced
// attribution pass, plus replays of single public calls on the workload's
// own inputs).
#pragma once

#include <sched.h>

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace e2e {

using MetricList = std::vector<std::pair<std::string, std::string>>;  // name, unit

/// The end-to-end metrics every workload reports with --trace 0.
const MetricList& end_to_end_metrics();
/// The per-layer metrics every workload reports with --trace 1 (zero
/// where the workload does not pass through the layer).
const MetricList& per_layer_metrics();

void run_atlas(const Config& config, Outcome& out);
void run_serve(const Config& config, Outcome& out);
void run_fabric(const Config& config, Outcome& out);
void run_search_graph(const Config& config, Outcome& out);

/// serve-mixed's traced measurement on a fresh set-up of its own: one
/// untraced and one traced serve pass, setting every http.* and service.*
/// per-layer metric. fabric-many's traced run ends with it, so the service
/// layer is measured on a workload BENCHMARK.json lists. Resets the trace
/// before and after.
void measure_service_layer(const Config& config, Outcome& out);

/// Set-ups per untraced run. At the start: at least kSetupRepeats, and
/// more while they have taken under kSetupBudgetS, at most
/// kSetupMaxRepeats. After each pass: more for up to kSetupPassShare of
/// that pass's time (none where one set-up takes longer), so the median
/// sees the host over the whole run, not only its first moments.
inline constexpr int kSetupRepeats = 5;
inline constexpr int kSetupMaxRepeats = 2000;
inline constexpr double kSetupBudgetS = 0.25;
inline constexpr double kSetupPassShare = 0.05;

/// Times repeated fresh set-ups of a workload; setup_s is their median.
/// `setup` builds the workload state and returns it. The first state is
/// kept for the passes; later ones are torn down off the clock.
template <typename State>
class SetupTimer {
  public:
    /// The start's set-ups (one when `once`, as in a traced run).
    SetupTimer(bool once, std::function<State()> setup) : setup_(std::move(setup)) {
        state_ = setup_once();
        double spent = times_.back();
        while (!once && (static_cast<int>(times_.size()) < kSetupRepeats ||
                         (spent < kSetupBudgetS &&
                          static_cast<int>(times_.size()) < kSetupMaxRepeats))) {
            setup_once();
            spent += times_.back();
        }
    }

    const State& state() const { return state_; }

    /// More set-ups after a pass that took `pass_s` seconds.
    void after_pass(double pass_s) {
        const double budget = pass_s * kSetupPassShare;
        const double start = now_s();
        while (now_s() - start + times_.back() <= budget) setup_once();
    }

    void report(Outcome& out) const { out.set("setup_s", median(times_), "s"); }

  private:
    State setup_once() {
        const double t0 = now_s();
        State state = setup_();
        times_.push_back(now_s() - t0);
        return state;
    }

    std::function<State()> setup_;
    State state_{};
    std::vector<double> times_;
};

/// Per-pass values of a run's end-to-end metrics. A run reports each
/// metric's median pass. On a shared host a pass's time swings by 10-30%
/// with the neighbours' load; the median of a run's passes moves less
/// from run to run than its best pass, which depends on the one luckiest
/// moment of the run.
class PassSeries {
  public:
    void add(const std::string& name, double value, const std::string& unit);
    /// Sets every collected metric on `out` to its median pass, and notes
    /// every pass's value.
    void report_median(Outcome& out) const;

  private:
    std::map<std::string, std::pair<std::vector<double>, std::string>> values_;
};

/// Runs pass(i) until `seconds` have elapsed and at least `min_passes`
/// passes ran, calling between(pass seconds) after each; returns the
/// number of passes.
int run_passes(double seconds, int min_passes, const std::function<void(int)>& pass,
               const std::function<void(double)>& between);

/// Pins the calling thread to one CPU, the next in a process-wide
/// rotation over the CPUs it may use, until destroyed (the original mask
/// is restored). On a shared host a CPU's speed changes from moment to
/// moment (by up to ~3x), and a thread left alone stays on whichever CPU
/// it woke on, so unpinned single-thread timings measure that one CPU's
/// luck rather than the machine. Threads started while pinned inherit
/// the pin, which serve-mixed uses to keep a pass's threads on one CPU.
class PinToNextCpu {
  public:
    PinToNextCpu();
    ~PinToNextCpu();
    PinToNextCpu(const PinToNextCpu&) = delete;
    PinToNextCpu& operator=(const PinToNextCpu&) = delete;

  private:
    cpu_set_t original_;
    bool pinned_ = false;
};

/// Issues `count` hot requests, each pinned to the next CPU, appending
/// each one's latency in ms to `samples`; returns their summed seconds.
double hot_requests(int count, std::vector<double>& samples, const std::function<void()>& request);

/// Times the scenario layer's public calls on `manifest_text` against the
/// warm cache in `cache_dir`: parse_manifest, expand, ResultCache::lookup,
/// ResultCache::store (into a scratch cache), CampaignCheckpoint::
/// mark_settled (into a scratch ledger) and the artifact render. Sets
/// manifest.*, cache.lookup_us, cache.store_us, checkpoint.append_us and
/// render.us (means per call), and checks the replayed render equals
/// `artifact`.
void scenario_io_replay(const Config& config, const std::string& manifest_text,
                        const std::string& cache_dir, const std::string& artifact,
                        Outcome& out);

/// Per-layer self times and the trace bookkeeping metrics from the
/// summary of the traced pass: `traced_wall` / `untraced_wall` are the
/// attribution pass's wall times with tracing on / off, `lanes` how many
/// lanes tile it. With more than one lane, checks that the lane self
/// times sum to lanes x wall within kSelfSumTolerance.
void report_trace(const Config& config, const trace::Summary& summary, double traced_wall,
                  double untraced_wall, Outcome& out);

inline constexpr double kSelfSumTolerance = 0.05;

/// Mean duration in microseconds of the spans named `name` (0 if none).
double mean_us(const trace::Summary& summary, const std::string& name);

} // namespace e2e
