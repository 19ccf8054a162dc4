#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

#include "scenario/campaign.hpp"
#include "scenario/checkpoint.hpp"
#include "scenario/manifest.hpp"
#include "workloads.hpp"

namespace e2e {

const MetricList& end_to_end_metrics() {
    static const MetricList list{
        {"setup_s", "s"},        {"wall_s", "s"},         {"cpu_s", "s"},
        {"peak_rss_mb", "MiB"},  {"artifact_s", "s"},     {"trials_per_s", "1/s"},
        {"rt_p50_ms", "ms"},     {"cold_rt_p50_ms", "ms"}, {"req_per_s", "1/s"},
    };
    return list;
}

const MetricList& per_layer_metrics() {
    static const MetricList list = [] {
        MetricList l{
            // core/sim + core/run, analysis
            {"trial.run_us", "us"},
            {"trial.rounds", "rounds"},
            {"engine.cell_updates_per_s", "1/s"},
            {"trial.coloring_us", "us"},
            // stats
            {"estimator.trials_consumed", "count"},
            {"estimator.trials_generated", "count"},
            {"estimator.useful_ratio", "ratio"},
            {"estimator.probe_ms_p50", "ms"},
            {"refine.probes", "count"},
            // scenario: campaign, manifest, cache, checkpoint, render
            {"campaign.point_s_max", "s"},
            {"campaign.point_s_sum", "s"},
            {"campaign.parallel_efficiency", "ratio"},
            {"manifest.parse_us", "us"},
            {"manifest.expand_us", "us"},
            {"cache.lookup_us", "us"},
            {"cache.store_us", "us"},
            {"cache.hits", "count"},
            {"cache.misses", "count"},
            {"checkpoint.append_us", "us"},
            {"render.us", "us"},
            // service + HTTP
            {"http.parse_us", "us"},
            {"http.render_us", "us"},
            {"http.roundtrip_us", "us"},
            {"http.idle_peer_stall_s", "s"},
            {"service.handle_us.healthz", "us"},
            {"service.handle_us.submit", "us"},
            {"service.handle_us.list", "us"},
            {"service.handle_us.status", "us"},
            {"service.handle_us.report", "us"},
            {"service.list_us_last", "us"},
            {"service.rss_per_job_kb", "KiB"},
            // dist
            {"dist.rpc_us.manifest", "us"},
            {"dist.rpc_us.lease", "us"},
            {"dist.rpc_us.heartbeat", "us"},
            {"dist.rpc_us.complete", "us"},
            {"coordinator.handle_us", "us"},
            {"lease.count", "count"},
            {"lease.expired", "count"},
            {"lease.duplicates", "count"},
            {"lease.conflicts", "count"},
            {"worker.idle_s", "s"},
            {"worker.retries", "count"},
            {"worker.drain_s", "s"},
            // core/search
            {"search.sims", "count"},
            {"search.candidates", "count"},
            {"search.group_build_us", "us"},
            {"search.s", "s"},
            {"search.sims_per_s", "1/s"},
            // graph
            {"graph.build_s", "s"},
            {"graph.run_s", "s"},
            {"graph.rounds", "count"},
            {"graph.recolorings", "count"},
            {"graph.vertex_rounds_per_s", "1/s"},
            // the trace itself
            {"trace.wall_s", "s"},
            {"trace.untraced_wall_s", "s"},
            {"trace.overhead_s", "s"},
            {"trace.lanes", "count"},
            {"trace.self_sum_s", "s"},
            {"trace.self_sum_error", "ratio"},
        };
        for (std::size_t i = 0; i < trace::kLayers; ++i)
            l.emplace_back(std::string("self_s.") + trace::layer_name(static_cast<trace::Layer>(i)),
                           "s");
        return l;
    }();
    return list;
}

void PassSeries::add(const std::string& name, double value, const std::string& unit) {
    auto& [series, series_unit] = values_[name];
    series.push_back(value);
    series_unit = unit;
}

void PassSeries::report_median(Outcome& out) const {
    for (const auto& [name, entry] : values_) {
        const auto& [series, unit] = entry;
        out.set(name, median(series), unit);
        std::string passes = "passes " + name + " (" + unit + "):";
        for (const double v : series) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), " %.4g", v);
            passes += buf;
        }
        out.note(passes);
    }
}

int run_passes(double seconds, int min_passes, const std::function<void(int)>& pass,
               const std::function<void(double)>& between) {
    const double start = now_s();
    int passes = 0;
    while (passes < min_passes || now_s() - start < seconds) {
        const double t0 = now_s();
        pass(passes++);
        between(now_s() - t0);
        // Hand freed heap back to the OS so peak_rss_mb measures one pass,
        // not how the allocator's free lists happen to fragment over many.
        ::malloc_trim(0);
    }
    return passes;
}

PinToNextCpu::PinToNextCpu() {
    static std::atomic<unsigned> next{0};
    CPU_ZERO(&original_);
    if (::sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    const int allowed = CPU_COUNT(&original_);
    if (allowed == 0) return;
    int pick = static_cast<int>(next++ % static_cast<unsigned>(allowed));
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (!CPU_ISSET(c, &original_) || pick-- > 0) continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        pinned_ = ::sched_setaffinity(0, sizeof(one), &one) == 0;
        return;
    }
}

PinToNextCpu::~PinToNextCpu() {
    if (pinned_) ::sched_setaffinity(0, sizeof(original_), &original_);
}

double hot_requests(int count, std::vector<double>& samples,
                    const std::function<void()>& request) {
    double total = 0.0;
    for (int h = 0; h < count; ++h) {
        const PinToNextCpu pin;
        const double t0 = now_s();
        request();
        const double dt = now_s() - t0;
        samples.push_back(dt * 1e3);
        total += dt;
    }
    return total;
}

double mean_us(const trace::Summary& summary, const std::string& name) {
    const auto it = summary.by_name.find(name);
    if (it == summary.by_name.end() || it->second.count == 0) return 0.0;
    return it->second.total_s / static_cast<double>(it->second.count) * 1e6;
}

void scenario_io_replay(const Config& config, const std::string& manifest_text,
                        const std::string& cache_dir, const std::string& artifact,
                        Outcome& out) {
    using namespace dynamo::scenario;
    // Enough repetitions that the per-call means are stable for the small
    // manifests too; the large ones dominate the wall time either way.
    const int repeats = config.smoke ? 2 : 20;
    std::vector<double> parse_us;
    std::vector<double> expand_us;
    Manifest manifest;
    std::vector<PointSpec> specs;
    for (int r = 0; r < repeats; ++r) {
        double t = now_s();
        manifest = parse_manifest(manifest_text, "replay");
        parse_us.push_back((now_s() - t) * 1e6);
        t = now_s();
        specs = expand(manifest);
        expand_us.push_back((now_s() - t) * 1e6);
    }
    out.set("manifest.parse_us", median(parse_us), "us");
    out.set("manifest.expand_us", median(expand_us), "us");

    const Scenario* scenario = find(manifest.scenario);
    const ResultCache cache(cache_dir);
    const int epoch = cache.combined_epoch(scenario->epoch);
    CampaignOutcome outcome;
    outcome.total_points = specs.size();
    double lookup_s = 0.0;
    for (const PointSpec& spec : specs) {
        CampaignPoint point;
        point.spec = spec;
        const double t = now_s();
        auto hit = cache.lookup(CacheKey{manifest.scenario, epoch, spec.params});
        lookup_s += now_s() - t;
        if (hit) {
            point.result = std::move(*hit);
            point.from_cache = true;
        }
        outcome.points.push_back(std::move(point));
    }

    const std::string store_dir = fresh_dir(config, "replay-store");
    const ResultCache store(store_dir);
    double store_s = 0.0;
    for (const CampaignPoint& point : outcome.points) {
        const double t = now_s();
        store.store(CacheKey{manifest.scenario, epoch, point.spec.params}, point.result);
        store_s += now_s() - t;
    }
    double append_s = 0.0;
    {
        CampaignCheckpoint ledger(store_dir + "/ledger.jsonl",
                                  campaign_fingerprint(manifest.scenario, epoch, 0, 1, specs), 0,
                                  1, specs.size());
        for (const CampaignPoint& point : outcome.points) {
            const double t = now_s();
            ledger.mark_settled(point.spec.index,
                                cache_hash(CacheKey{manifest.scenario, epoch, point.spec.params}));
            append_s += now_s() - t;
        }
    }
    remove_tree(store_dir);

    std::vector<double> render_us;
    std::string rendered;
    for (int r = 0; r < repeats; ++r) {
        const double t = now_s();
        rendered = outcome.to_json(manifest);
        render_us.push_back((now_s() - t) * 1e6);
    }
    const double n = static_cast<double>(std::max<std::size_t>(specs.size(), 1));
    out.set("cache.lookup_us", lookup_s / n * 1e6, "us");
    out.set("cache.store_us", store_s / n * 1e6, "us");
    out.set("checkpoint.append_us", append_s / n * 1e6, "us");
    out.set("render.us", median(render_us), "us");
    out.check(rendered == artifact, "replayed cache lookups + render reproduce the " +
                                        manifest.name + " artifact byte for byte");
}

void report_trace(const Config& config, const trace::Summary& summary, double traced_wall,
                  double untraced_wall, Outcome& out) {
    double self_sum = 0.0;
    for (std::size_t i = 0; i < trace::kLayers; ++i) {
        self_sum += summary.lane_self_s[i];
        out.set(std::string("self_s.") + trace::layer_name(static_cast<trace::Layer>(i)),
                summary.lane_self_s[i], "s");
    }
    const double lanes = static_cast<double>(summary.lanes);
    const double expected = lanes * traced_wall;
    const double error = expected > 0.0 ? std::abs(self_sum - expected) / expected : 1.0;
    out.set("trace.wall_s", traced_wall, "s");
    out.set("trace.untraced_wall_s", untraced_wall, "s");
    out.set("trace.overhead_s", traced_wall - untraced_wall, "s");
    out.set("trace.lanes", lanes, "count");
    out.set("trace.self_sum_s", self_sum, "s");
    out.set("trace.self_sum_error", error, "ratio");
    out.note("trace: " + std::to_string(summary.records) + " span records, " +
             std::to_string(summary.lanes) + " lane(s), self-time sum " +
             std::to_string(self_sum) + " s vs lanes x traced wall " + std::to_string(expected) +
             " s, overhead " + std::to_string(traced_wall - untraced_wall) + " s");
    // With several lanes (client or worker threads) the lanes are timed
    // apart from the pass wall, so the sum can miss it: a lane that does
    // not cover the pass, or a span counted twice. A single lane is opened
    // inside the timed call, so its self times sum to the wall by
    // construction and there is nothing to check.
    if (summary.lanes > 1) {
        out.check(error <= kSelfSumTolerance,
                  "layer self times sum to lanes x traced wall within " +
                      std::to_string(static_cast<int>(kSelfSumTolerance * 100)) + "%");
    } else {
        out.check(summary.lanes == 1, "the traced pass ran in one lane");
    }
    if (!config.trace_out.empty()) trace::write_records(config.trace_out);
}

} // namespace e2e
