// e2ebench/src/trace.hpp
//
// The traced run's span recorder. Spans are opened by the benchmark's own
// code around calls into the library's public functions — nothing inside
// src/ is instrumented. Each span has a name, a layer, a start, an end and
// a parent: the innermost open span on the same thread, or an explicit
// Link to a span open on another thread (a server-side handler attached to
// the client round trip that caused it).
//
// Self time = duration minus the time covered by the span's children. A
// "lane" is a root span that tiles one thread of control for the whole
// traced pass (the replay thread, a client thread, a worker thread); the
// self times of every span in lane trees sum, per lane, to the lane's
// duration, which is what the per-layer split is reported against.
//
// Records stay in memory and are written out once, when the run ends.
// With tracing disabled a Span is a branch on one relaxed atomic load.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e::trace {

enum class Layer : std::uint8_t {
    Bench,     ///< the benchmark's own code: schedules, waits, checks
    Sim,       ///< core/sim + core/run: RuleInfo::run
    Analysis,  ///< analysis: random colorings
    Stats,     ///< stats: sequential estimator + refine_critical
    Scenario,  ///< scenario: campaign points, manifest, cache, checkpoint, render
    Service,   ///< service: CampaignService::handle
    Http,      ///< HTTP transport: connect, send, wait, receive
    Dist,      ///< dist: coordinator handle, worker loop, lease RPCs
    Search,    ///< core/search: SymmetryGroup, parallel_min_dynamo
    Graph,     ///< graph: build_graph, run_graph_rule
    Count,
};

inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::Count);
const char* layer_name(Layer layer);

/// Handle to an open span for children on other threads.
struct Link {
    std::uint64_t id = 0;  ///< 0 = no parent
    bool lane = false;     ///< the parent belongs to a lane tree
};

void set_enabled(bool on);
bool enabled();

class Span {
  public:
    enum class Kind { Child, Lane };

    /// Child of the innermost open span on this thread (a root when none).
    /// `keep` = false aggregates the span without storing its record (for
    /// per-trial spans, which would otherwise be millions of records).
    Span(const char* name, Layer layer, bool keep = true);
    /// Root of a lane: its thread's whole run is attributed.
    Span(const char* name, Layer layer, Kind kind);
    /// Child of a span open on another thread.
    Span(const char* name, Layer layer, Link parent);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    Link link() const;

  private:
    void open(const char* name, Layer layer, Link parent, bool lane_root, bool keep);
    bool active_ = false;
};

/// Link to the innermost open span on this thread ({} when none).
Link current();

struct NameStats {
    std::uint64_t count = 0;
    double total_s = 0.0;
    std::vector<double> durations_s;
};

struct Summary {
    std::map<std::string, NameStats> by_name;
    std::array<double, kLayers> lane_self_s{};  ///< self time inside lane trees
    std::size_t lanes = 0;
    std::size_t records = 0;
};

Summary summarize();

/// Drops every record and aggregate, so that a second traced measurement
/// in the same run is summarized on its own. Call with no span open.
void reset();

/// Writes every kept record as one JSON object per line:
/// {"id", "parent", "name", "layer", "thread", "start_us", "end_us"}.
void write_records(const std::string& path);

} // namespace e2e::trace
