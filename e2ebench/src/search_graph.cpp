// search-graph: a cold run_campaign on search_scaling_4x4 (canonical
// min-dynamo search on the 4x4 mesh) plus one graph_dynamics_point
// campaign on a Barabasi-Albert graph, then warm re-runs of both. These
// are the only paths through core/search and the CSR graph engine; the
// campaign, service and dist layers do almost nothing here.
#include <memory>

#include "core/run/batch.hpp"
#include "core/search/canonical.hpp"
#include "core/search/sharded.hpp"
#include "graph/builder.hpp"
#include "rules/registry.hpp"
#include "scenario/campaign.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using namespace dynamo;
using namespace dynamo::scenario;
using dynamo::util::Json;
using dynamo::util::JsonObject;

constexpr unsigned kWorkers = 4;
constexpr int kHotPerPass = 2000;
/// The graph point: sized so one cold pass takes about a second.
constexpr std::uint64_t kGraphVertices = 100000;
constexpr std::uint64_t kGraphTrials = 4;
constexpr std::uint64_t kGraphSeed = 97251;  ///< the scenario's default seed

/// BENCH_search_scaling.json's canonical arms (serial == pooled).
constexpr const char* kCanonicalSims = "60689";
constexpr const char* kCanonicalCovered = "14375312";
constexpr const char* kCanonicalMinSize = "4";

struct Setup {
    std::string search_text, graph_text;
    Manifest search, graph;
    std::unique_ptr<ThreadPool> pool;
};

std::string graph_manifest(const Config& config) {
    JsonObject fixed{{"kind", Json("ba")},
                     {"n", Json(config.smoke ? std::uint64_t{2000} : kGraphVertices)},
                     {"grule", Json("plurality-simple")},
                     {"density", Json::from_lexeme("0.5")},
                     {"trials", Json(config.smoke ? std::uint64_t{2} : kGraphTrials)}};
    JsonObject root{{"name", Json("graph-ba")},
                    {"scenario", Json("graph_dynamics_point")},
                    {"fixed", Json(std::move(fixed))},
                    {"seed", Json(kGraphSeed + (config.seed - kDefaultSeed))}};
    return Json(std::move(root)).dump(2) + "\n";
}

struct Totals {
    std::uint64_t sims = 0, candidates = 0, rounds = 0, recolorings = 0;
    double vertex_rounds = 0.0;
    std::size_t mismatches = 0;
};

/// Serial replay of every point of both campaigns from public calls.
void replay(const std::vector<PointSpec>& search_specs, const std::vector<PointSpec>& graph_specs,
            const std::string& search_artifact, const std::string& graph_artifact,
            Totals& totals) {
    const trace::Span lane("replay", trace::Layer::Bench, trace::Span::Kind::Lane);
    const auto search_expected = artifact_point_metrics(search_artifact);
    for (std::size_t i = 0; i < search_specs.size(); ++i) {
        const trace::Span point("campaign.point.replay", trace::Layer::Scenario);
        const auto& p = search_specs[i].params;
        const grid::Torus torus(grid::topology_from_string(p.at("topology")),
                                static_cast<std::uint32_t>(std::stoul(p.at("rows"))),
                                static_cast<std::uint32_t>(std::stoul(p.at("cols"))));
        {
            const trace::Span s("search.group_build", trace::Layer::Search);
            const SymmetryGroup group(torus);
            (void)group.order();
        }
        const rules::RuleInfo& rule =
            rules::rule_or_throw(p.count("rule") ? p.at("rule") : std::string("smp"));
        ParallelSearchOptions opts;
        opts.base.total_colors = static_cast<Color>(std::stoi(p.at("colors")));
        opts.base.max_sims = std::stoull(p.at("budget"));
        opts.base.rule = &rule;
        opts.num_shards = static_cast<unsigned>(std::stoul(p.at("shards")));
        SearchOutcome outcome;
        {
            const trace::Span s("search.run", trace::Layer::Search);
            outcome = parallel_min_dynamo(torus, static_cast<std::uint32_t>(
                                                     std::stoul(p.at("max-size"))),
                                          opts);
        }
        totals.sims += outcome.sims;
        totals.candidates += outcome.candidates;
        if (search_expected[i].at("sims") != std::to_string(outcome.sims) ||
            search_expected[i].at("covered") != std::to_string(outcome.covered))
            ++totals.mismatches;
    }
    const auto graph_expected = artifact_point_metrics(graph_artifact);
    for (std::size_t i = 0; i < graph_specs.size(); ++i) {
        const trace::Span point("campaign.point.replay", trace::Layer::Scenario);
        const auto& p = graph_specs[i].params;
        const std::uint64_t seed = std::stoull(p.at("seed"));
        Xoshiro256 graph_rng(seed);
        std::unique_ptr<graphx::Graph> graph;
        {
            const trace::Span s("graph.build", trace::Layer::Graph);
            graph = std::make_unique<graphx::Graph>(graphx::build_graph(
                p.at("kind"), std::stoull(p.at("n")), 0.0, graph_rng.next()));
        }
        const double density = std::stod(p.at("density"));
        std::uint64_t consensus = 0;
        for (std::uint64_t t = 0; t < std::stoull(p.at("trials")); ++t) {
            Xoshiro256 rng(substream_seed(seed, t));
            ColorField field(graph->num_vertices());
            for (auto& c : field) c = rng.bernoulli(density) ? kBlack : kWhite;
            RunOptions opts;
            opts.target = kBlack;
            RunResult r;
            {
                const trace::Span s("graph.run", trace::Layer::Graph);
                r = graphx::run_graph_rule(p.at("grule"), *graph, field, opts);
            }
            if (r.reached_mono(kBlack)) ++consensus;
            totals.rounds += r.rounds;
            totals.recolorings += r.total_recolorings;
            totals.vertex_rounds +=
                static_cast<double>(r.rounds) * static_cast<double>(graph->num_vertices());
        }
        if (graph_expected[i].at("consensus") != std::to_string(consensus)) ++totals.mismatches;
    }
}

} // namespace

void run_search_graph(const Config& config, Outcome& out) {
    SetupTimer<Setup> setups(config.trace, [&] {
        Setup s;
        std::map<std::string, std::string> overrides;
        if (config.smoke) overrides["grid.max-size"] = "[2, 4]";
        s.search_text = derived_manifest(config, "search_scaling_4x4.json", config.seed, overrides);
        s.graph_text = graph_manifest(config);
        s.search = parse_manifest(s.search_text, "search_scaling_4x4.json");
        s.graph = parse_manifest(s.graph_text, "graph-ba");
        s.pool = std::make_unique<ThreadPool>(kWorkers);
        return s;
    });
    const Setup& setup = setups.state();

    CampaignOptions options;
    options.pool = setup.pool.get();
    std::uint64_t graph_trials = 0;
    // One request: both campaigns, both artifacts rendered.
    const auto request = [&](bool cold, std::string& search_artifact,
                             std::string& graph_artifact) {
        const CampaignOutcome s = run_campaign(setup.search, options);
        search_artifact = s.to_json(setup.search);
        const CampaignOutcome g = run_campaign(setup.graph, options);
        graph_artifact = g.to_json(setup.graph);
        const std::size_t points = s.points.size() + g.points.size();
        const bool ok = s.failed == 0 && g.failed == 0 &&
                        (cold ? s.computed + g.computed : s.cached + g.cached) == points;
        graph_trials = 0;
        for (const CampaignPoint& point : g.points)
            graph_trials += std::stoull(point.spec.params.at("trials"));
        return ok;
    };

    std::string search_ref, graph_ref;
    if (!config.trace) {
        PassSeries series;
        std::vector<double> hot_ms;  // every pass's, for the pooled percentiles
        double hot_total_s = 0.0;
        int passes = 0;
        bool identical = true;
        run_passes(config.seconds, config.smoke ? 1 : 3, [&](int) {
            options.cache_dir = fresh_dir(config, "search-graph-cache");
            std::string search_artifact, graph_artifact;
            double wall = 0.0, cpu = 0.0;
            {
                // The single graph point runs on this thread (the pool only
                // splits multi-point campaigns): rotate it over the CPUs.
                const PinToNextCpu pin;
                const double c0 = cpu_s();
                const double t0 = now_s();
                out.op(request(true, search_artifact, graph_artifact));
                wall = now_s() - t0;
                cpu = cpu_s() - c0;
            }
            if (search_ref.empty()) {
                search_ref = search_artifact;
                graph_ref = graph_artifact;
            }
            identical = identical && search_artifact == search_ref && graph_artifact == graph_ref;
            hot_total_s += hot_requests(config.smoke ? 3 : kHotPerPass, hot_ms, [&] {
                std::string s2, g2;
                const bool ok = request(false, s2, g2);
                out.op(ok && s2 == search_artifact && g2 == graph_artifact);
            });
            series.add("wall_s", wall, "s");
            series.add("artifact_s", wall, "s");
            series.add("cold_rt_p50_ms", wall * 1e3, "ms");
            series.add("cpu_s", cpu, "s");
            series.add("trials_per_s", static_cast<double>(graph_trials) / wall, "1/s");
            ++passes;
        }, [&](double pass_s) { setups.after_pass(pass_s); });
        out.check(identical, "every cold pass rendered the same two artifacts; warm re-runs "
                             "were all cache hits and byte-identical");
        series.report_median(out);
        out.set("rt_p50_ms", quantile(hot_ms, 0.5), "ms");
        out.set("rt_p99_ms", quantile(hot_ms, 0.99), "ms");
        out.set("req_per_s", static_cast<double>(hot_ms.size()) / hot_total_s, "1/s");
        out.note("search-graph: " + std::to_string(passes) + " cold requests, " +
                 std::to_string(hot_ms.size()) + " warm requests");
    } else {
        options.cache_dir = fresh_dir(config, "search-graph-cache");
        out.op(request(true, search_ref, graph_ref));
        const std::vector<PointSpec> search_specs = expand(setup.search);
        const std::vector<PointSpec> graph_specs = expand(setup.graph);
        out.set("cache.hits", 0.0, "count");
        out.set("cache.misses", static_cast<double>(search_specs.size() + graph_specs.size()),
                "count");
        Totals untraced;
        double t0 = now_s();
        replay(search_specs, graph_specs, search_ref, graph_ref, untraced);
        const double untraced_wall = now_s() - t0;
        trace::set_enabled(true);
        Totals totals;
        t0 = now_s();
        replay(search_specs, graph_specs, search_ref, graph_ref, totals);
        const double traced_wall = now_s() - t0;
        trace::set_enabled(false);
        out.check(totals.mismatches == 0 && untraced.mismatches == 0,
                  "serial replay reproduces every search and graph point's counts");
        const trace::Summary summary = trace::summarize();
        const auto total = [&](const char* name) {
            const auto it = summary.by_name.find(name);
            return it == summary.by_name.end() ? 0.0 : it->second.total_s;
        };
        out.set("search.sims", static_cast<double>(totals.sims), "count");
        out.set("search.candidates", static_cast<double>(totals.candidates), "count");
        out.set("search.group_build_us", mean_us(summary, "search.group_build"), "us");
        out.set("search.s", total("search.run"), "s");
        out.set("search.sims_per_s", static_cast<double>(totals.sims) / total("search.run"), "1/s");
        out.set("graph.build_s", total("graph.build"), "s");
        out.set("graph.run_s", total("graph.run"), "s");
        out.set("graph.rounds", static_cast<double>(totals.rounds), "count");
        out.set("graph.recolorings", static_cast<double>(totals.recolorings), "count");
        out.set("graph.vertex_rounds_per_s", totals.vertex_rounds / total("graph.run"), "1/s");
        report_trace(config, summary, traced_wall, untraced_wall, out);
        scenario_io_replay(config, setup.search_text, options.cache_dir, search_ref, out);
        remove_tree(options.cache_dir);
    }

    // The canonical search arm, pinned by BENCH_search_scaling.json: the
    // deepest point of the campaign.
    const auto points = artifact_point_metrics(search_ref);
    const auto& last = points.back();
    out.check(last.at("sims") == kCanonicalSims && last.at("covered") == kCanonicalCovered &&
                  last.at("min_size") == kCanonicalMinSize,
              "search counts equal BENCH_search_scaling.json's canonical arms (sims " +
                  last.at("sims") + ", covered " + last.at("covered") + ", min_size " +
                  last.at("min_size") + ")");
    setups.report(out);
}

} // namespace e2e
