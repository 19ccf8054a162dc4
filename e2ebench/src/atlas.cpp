// atlas-cold: the full critical-density atlas (36 points, 12 rules x 3
// tori at 12x12) through run_campaign on a cold cache and a 4-thread pool,
// then warm re-runs of the same request. Few heavy points: the time goes
// to core/sim, analysis and stats, and the campaign's static-block
// schedule decides how much of it overlaps.
#include <cmath>
#include <cstdio>
#include <memory>

#include "analysis/montecarlo.hpp"
#include "core/run/batch.hpp"
#include "rules/registry.hpp"
#include "scenario/campaign.hpp"
#include "stats/refine.hpp"
#include "stats/sequential.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using namespace dynamo;
using namespace dynamo::scenario;

constexpr unsigned kWorkers = 4;
/// Warm re-runs after each cold pass (the workload's hot requests).
constexpr int kHotPerPass = 400;

/// FNV-1a of the campaign artifact at kDefaultSeed (full and smoke size).
constexpr std::uint64_t kAtlasHash = 0x970e58b1a17a066bULL;
constexpr std::uint64_t kAtlasSmokeHash = 0x696a5e8a6a66fac2ULL;

struct Setup {
    std::string text;
    Manifest manifest;
    std::size_t points = 0;
    std::unique_ptr<ThreadPool> pool;
};

std::string fmt(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

std::uint64_t sum_metric(const CampaignOutcome& outcome, const char* key) {
    std::uint64_t total = 0;
    for (const CampaignPoint& point : outcome.points) {
        const auto it = point.result.metrics.find(key);
        if (it != point.result.metrics.end()) total += std::stoull(it->second);
    }
    return total;
}

struct ReplayTotals {
    std::uint64_t consumed = 0;
    std::uint64_t generated = 0;
    std::uint64_t probes = 0;
    std::uint64_t trials = 0;
    std::uint64_t rounds = 0;
    double cell_rounds = 0.0;
    std::size_t mismatches = 0;
};

/// Serial replay of one mc_critical_density point from public calls — the
/// scenario's probe loop, with the estimator's sample function opened up
/// so coloring and engine run are timed separately. Must reproduce the
/// point's trials_total and bracket exactly.
void replay_point(const PointSpec& spec, const std::map<std::string, std::string>& expected,
                  ReplayTotals& totals) {
    const trace::Span point_span("campaign.point.replay", trace::Layer::Scenario);
    const auto& p = spec.params;
    const auto get = [&](const char* key, const char* fallback) {
        const auto it = p.find(key);
        return it == p.end() ? std::string(fallback) : it->second;
    };
    const rules::RuleInfo& rule = rules::rule_or_throw(get("rule", "smp"));
    const grid::Torus torus(grid::topology_from_string(get("topology", "mesh")),
                            static_cast<std::uint32_t>(std::stoul(get("m", "12"))),
                            static_cast<std::uint32_t>(std::stoul(get("n", "12"))));
    const auto colors =
        static_cast<Color>(std::stoi(get("colors", rule.bicolor() ? "2" : "4")));
    const std::uint64_t seed = std::stoull(get("seed", "97111"));
    const Backend backend = backend_from_name(get("backend", "auto")).value();

    stats::RefineOptions refine;
    refine.ladder = std::stoul(get("ladder", "6"));
    refine.bracket_target = std::stod(get("bracket_target", "0.02"));
    refine.max_probes = std::stoul(get("max_probes", "32"));
    stats::SequentialOptions seq;
    seq.stopping.boundary = stats::boundary_from_name(get("boundary", "eb")).value();
    seq.stopping.delta = std::stod(get("delta", "0.05"));
    seq.stopping.union_count = refine.max_probes;
    seq.stopping.decision_threshold = 0.5;
    seq.max_trials = std::stoul(get("max_trials", "10000"));
    const bool warm = std::stoi(get("warm", "1")) != 0;
    const std::size_t base_min = seq.stopping.min_trials;
    const Color k = rule.bicolor() ? kBlack : Color(1);

    struct Issued {
        double x;
        std::size_t trials;
        bool decided;
    };
    std::vector<Issued> issued;
    std::size_t trials_total = 0;
    const stats::CriticalBracket bracket =
        stats::refine_critical(refine, [&](double density, std::size_t index) {
            const trace::Span probe_span("estimator.probe", trace::Layer::Stats);
            stats::SequentialOptions opts = seq;
            if (warm) {  // the scenario's warm start: nearest decided neighbour
                const Issued* nearest = nullptr;
                for (const Issued& past : issued) {
                    if (!past.decided) continue;
                    if (nearest == nullptr ||
                        std::abs(past.x - density) < std::abs(nearest->x - density))
                        nearest = &past;
                }
                if (nearest != nullptr) {
                    const std::size_t raised = std::min(nearest->trials / 2, base_min * 8);
                    if (raised > base_min) opts.stopping.min_trials = raised;
                }
            }
            const stats::SequentialEstimator estimator(opts, nullptr);
            const stats::SequentialResult result =
                estimator.run(substream_seed(seed, index), [&](std::size_t, Xoshiro256& rng) {
                    ColorField initial;
                    {
                        const trace::Span s("trial.coloring", trace::Layer::Analysis, false);
                        initial =
                            analysis::random_coloring(torus.size(), k, colors, density, rng);
                    }
                    RunOptions run_opts;
                    run_opts.backend = backend;
                    RunResult run;
                    {
                        const trace::Span s("trial.run", trace::Layer::Sim, false);
                        run = rule.run(torus, initial, run_opts);
                    }
                    ++totals.trials;
                    totals.rounds += run.rounds;
                    totals.cell_rounds += static_cast<double>(run.rounds) *
                                          static_cast<double>(torus.size());
                    const bool k_mono = run.termination == Termination::Monochromatic &&
                                        run.mono && *run.mono == k;
                    return k_mono ? 1.0 : 0.0;
                });
            trials_total += result.trials;
            totals.consumed += result.trials;
            totals.generated += result.computed;
            issued.push_back({density, result.trials, result.decided != 0});
            if (result.decided < 0) return stats::ProbeSide::Below;
            if (result.decided > 0) return stats::ProbeSide::Above;
            return stats::ProbeSide::Undecided;
        });
    totals.probes += bracket.probes.size();
    const auto at = [&](const char* key) {
        const auto it = expected.find(key);
        return it == expected.end() ? std::string() : it->second;
    };
    if (at("trials_total") != std::to_string(trials_total) ||
        at("critical_lo") != fmt(bracket.lo) || at("critical_hi") != fmt(bracket.hi))
        ++totals.mismatches;
}

/// Times scenario::compute_campaign_point on every point, one after
/// another on this thread, and checks each result against the artifact.
/// parallel_efficiency divides the summed point times by `cold_wall` x
/// kWorkers, with `cold_wall` the wall time of run_campaign's own cold
/// pass on the pool: a change to the campaign's schedule moves it.
void time_campaign_points(const Setup& setup, const std::vector<PointSpec>& specs,
                          const std::vector<std::map<std::string, std::string>>& expected,
                          double cold_wall, Outcome& out) {
    const Scenario* scenario = find(setup.manifest.scenario);
    double sum = 0.0;
    double max = 0.0;
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const double t0 = now_s();
        const CachedResult result = compute_campaign_point(*scenario, specs[i]);
        const double dt = now_s() - t0;
        sum += dt;
        max = std::max(max, dt);
        if (result.exit_code != 0 || result.metrics != expected[i]) ++mismatches;
    }
    out.check(mismatches == 0,
              "compute_campaign_point, run serially, reproduces every point of the artifact");
    out.set("campaign.point_s_max", max, "s");
    out.set("campaign.point_s_sum", sum, "s");
    out.set("campaign.parallel_efficiency", sum / (cold_wall * kWorkers), "ratio");
}

} // namespace

void run_atlas(const Config& config, Outcome& out) {
    const std::string file = config.smoke ? "atlas_smoke.json" : "atlas_phase_transition.json";
    SetupTimer<Setup> setups(config.trace, [&] {
        Setup s;
        s.text = derived_manifest(config, file, config.seed);
        s.manifest = parse_manifest(s.text, file);
        s.points = expand(s.manifest).size();
        s.pool = std::make_unique<ThreadPool>(kWorkers);
        return s;
    });
    const Setup& setup = setups.state();

    CampaignOptions options;
    options.pool = setup.pool.get();

    // One cold request into a fresh cache (left warm in options.cache_dir).
    struct Cold {
        std::string artifact;
        double wall = 0.0, cpu = 0.0;
        std::uint64_t trials = 0;
        std::size_t hits = 0, misses = 0;
    };
    const auto cold_request = [&] {
        options.cache_dir = fresh_dir(config, "atlas-cache");
        Cold cold;
        const double c0 = cpu_s();
        const double t0 = now_s();
        const CampaignOutcome outcome = run_campaign(setup.manifest, options);
        cold.artifact = outcome.to_json(setup.manifest);
        cold.wall = now_s() - t0;
        cold.cpu = cpu_s() - c0;
        cold.trials = sum_metric(outcome, "trials_total");
        cold.hits = outcome.cached;
        cold.misses = outcome.computed;
        out.op(outcome.failed == 0 && outcome.computed == setup.points);
        return cold;
    };

    std::string reference;
    if (!config.trace) {
        PassSeries series;
        std::vector<double> hot_ms;  // every pass's, for the pooled percentiles
        double hot_total_s = 0.0;
        int passes = 0;
        bool identical = true;
        run_passes(config.seconds, config.smoke ? 1 : 3, [&](int) {
            const Cold cold = cold_request();
            const std::string& artifact = cold.artifact;
            const double wall = cold.wall;
            if (reference.empty()) reference = artifact;
            identical = identical && artifact == reference;
            hot_total_s += hot_requests(config.smoke ? 3 : kHotPerPass, hot_ms, [&] {
                const CampaignOutcome warm = run_campaign(setup.manifest, options);
                out.op(warm.cached == setup.points && warm.to_json(setup.manifest) == artifact);
            });
            series.add("wall_s", wall, "s");
            series.add("artifact_s", wall, "s");
            series.add("cold_rt_p50_ms", wall * 1e3, "ms");
            series.add("cpu_s", cold.cpu, "s");
            series.add("trials_per_s", static_cast<double>(cold.trials) / wall, "1/s");
            ++passes;
        }, [&](double pass_s) { setups.after_pass(pass_s); });
        out.check(identical, "every cold pass rendered the same artifact; warm re-runs "
                             "were all cache hits and byte-identical");
        series.report_median(out);
        out.set("rt_p50_ms", quantile(hot_ms, 0.5), "ms");
        out.set("rt_p99_ms", quantile(hot_ms, 0.99), "ms");
        out.set("req_per_s", static_cast<double>(hot_ms.size()) / hot_total_s, "1/s");
        out.note("atlas-cold: " + std::to_string(passes) + " cold requests, " +
                 std::to_string(hot_ms.size()) + " warm requests");
    } else {
        // Attribution: (1) run_campaign's cold pass on the pool, then every
        // point computed serially, for the campaign schedule; (2) a serial
        // replay of every point, untraced then traced, for the per-trial split.
        const Cold cold = cold_request();
        reference = cold.artifact;
        const std::string cache_dir = options.cache_dir;
        out.set("cache.hits", static_cast<double>(cold.hits), "count");
        out.set("cache.misses", static_cast<double>(cold.misses), "count");
        const std::vector<PointSpec> specs = expand(setup.manifest);
        const auto expected = artifact_point_metrics(reference);
        time_campaign_points(setup, specs, expected, cold.wall, out);

        const auto replay = [&](ReplayTotals& totals) {
            const trace::Span lane("replay", trace::Layer::Bench, trace::Span::Kind::Lane);
            for (std::size_t i = 0; i < specs.size(); ++i)
                replay_point(specs[i], expected[i], totals);
        };
        ReplayTotals untraced;
        double t0 = now_s();
        replay(untraced);
        const double untraced_wall = now_s() - t0;
        trace::set_enabled(true);
        ReplayTotals totals;
        t0 = now_s();
        replay(totals);
        const double traced_wall = now_s() - t0;
        trace::set_enabled(false);
        out.check(totals.mismatches == 0 && untraced.mismatches == 0,
                  "serial replay reproduces every point's trials_total and bracket");

        const trace::Summary summary = trace::summarize();
        const double run_s = summary.by_name.count("trial.run")
                                 ? summary.by_name.at("trial.run").total_s
                                 : 0.0;
        const double n = static_cast<double>(std::max<std::uint64_t>(totals.trials, 1));
        out.set("trial.run_us", mean_us(summary, "trial.run"), "us");
        out.set("trial.coloring_us", mean_us(summary, "trial.coloring"), "us");
        out.set("trial.rounds", static_cast<double>(totals.rounds) / n, "rounds");
        out.set("engine.cell_updates_per_s", run_s > 0 ? totals.cell_rounds / run_s : 0.0,
                "1/s");
        out.set("estimator.trials_consumed", static_cast<double>(totals.consumed), "count");
        out.set("estimator.trials_generated", static_cast<double>(totals.generated), "count");
        out.set("estimator.useful_ratio",
                static_cast<double>(totals.consumed) /
                    static_cast<double>(std::max<std::uint64_t>(totals.generated, 1)),
                "ratio");
        out.set("refine.probes", static_cast<double>(totals.probes), "count");
        if (const auto it = summary.by_name.find("estimator.probe");
            it != summary.by_name.end())
            out.set("estimator.probe_ms_p50", median(it->second.durations_s) * 1e3, "ms");
        report_trace(config, summary, traced_wall, untraced_wall, out);
        scenario_io_replay(config, setup.text, cache_dir, reference, out);
        remove_tree(cache_dir);
    }

    const std::uint64_t expected_hash = config.smoke ? kAtlasSmokeHash : kAtlasHash;
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(fnv1a(reference)));
    if (config.seed == kDefaultSeed) {
        out.check(fnv1a(reference) == expected_hash, std::string("atlas artifact hash ") + hex +
                                                          " matches the stored default-seed hash");
    } else {
        out.note(std::string("atlas artifact hash ") + hex +
                 " (no stored hash for this seed; identity checks only)");
    }
    setups.report(out);
}

} // namespace e2e
