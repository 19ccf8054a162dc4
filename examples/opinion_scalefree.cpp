// opinion_scalefree - the paper's future-work scenario (Conclusions):
// opinion dynamics under the SMP plurality protocol on a scale-free social
// network, "in order to have a comparative analysis with respect to other
// algorithmic models of social influence".
//
// Four opinions compete on a Barabasi-Albert network. We sweep the seeding
// budget of opinion 1 under two strategies (influencers-first vs random)
// and report consensus probability and final market share, plus the same
// experiment on the torus (the paper's substrate) for comparison.
//
//   ./opinion_scalefree [--n=500] [--trials=15]
#include <algorithm>
#include <iostream>
#include <numeric>

#include "core/builders.hpp"
#include "core/run/batch.hpp"
#include "core/run/simulate.hpp"
#include "graph/builder.hpp"
#include "graph/plurality.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

#include "scenario/scenario.hpp"

namespace {

int scenario_main(dynamo::scenario::Context& ctx) {
    std::ostream& out = ctx.out;
    using namespace dynamo;
    const CliArgs& args = ctx.args;
    const auto n = static_cast<std::size_t>(args.get_int("n", 500));
    const auto trials = static_cast<std::size_t>(args.get_int("trials", 15));
    const std::string kind = args.get_string("kind", "ba");
    const double gparam = args.get_double("gparam", kind == "ba" ? 3.0 : 0.0);

    // Any builder topology works as the society; the default reproduces
    // the seed-era Barabasi-Albert graph byte for byte (same seed, same
    // attachment count).
    const graphx::Graph society = graphx::build_graph(kind, n, gparam, 0x50c1a1);
    out << "society: " << kind << ", " << society.num_vertices() << " agents, "
              << society.num_edges() << " ties, max degree " << society.max_degree()
              << " (hubs), mean " << society.mean_degree() << '\n';

    std::vector<graphx::VertexId> by_degree(n);
    std::iota(by_degree.begin(), by_degree.end(), 0u);
    std::stable_sort(by_degree.begin(), by_degree.end(), [&](auto a, auto b) {
        return society.degree(a) > society.degree(b);
    });

    ConsoleTable table({"budget", "strategy", "P(consensus on 1)", "mean final share",
                        "mean rounds"});
    // Trials run across the ThreadPool with per-trial RNG substreams
    // (BatchRunner): every table cell is a pure function of the seed and
    // its (budget, strategy) index, identical serial or pooled.
    ThreadPool pool;
    BatchRunner batch(&pool);
    struct TrialOutcome {
        bool consensus = false;
        double share = 0.0;
        std::uint32_t rounds = 0;
    };
    std::uint64_t cell = 0;
    for (const std::size_t budget : {n / 50, n / 20, n / 10, n / 5}) {
        for (const bool hubs : {true, false}) {
            const auto outcomes = batch.map_trials<TrialOutcome>(
                trials, substream_seed(0xfeed, cell++),
                [&](std::size_t, Xoshiro256& rng) {
                    ColorField opinions(n);
                    for (auto& c : opinions) c = static_cast<Color>(2 + rng.below(3));
                    if (hubs) {
                        for (std::size_t s = 0; s < budget; ++s) opinions[by_degree[s]] = 1;
                    } else {
                        std::vector<graphx::VertexId> ids(n);
                        std::iota(ids.begin(), ids.end(), 0u);
                        deterministic_shuffle(ids.begin(), ids.end(), rng);
                        for (std::size_t s = 0; s < budget; ++s) opinions[ids[s]] = 1;
                    }
                    graphx::GraphSimulationOptions opts;
                    opts.threshold = graphx::PluralityThreshold::SimpleHalf;
                    opts.target = 1;
                    const graphx::GraphTrace trace =
                        graphx::simulate_plurality(society, opinions, opts);
                    return TrialOutcome{trace.reached_mono(1),
                                        static_cast<double>(trace.final_target_count) /
                                            static_cast<double>(n),
                                        trace.rounds};
                });
            std::size_t consensus = 0;
            double share = 0.0, rounds = 0.0;
            for (const TrialOutcome& o : outcomes) {
                consensus += o.consensus;
                share += o.share;
                rounds += o.rounds;
            }
            table.add_row(budget, hubs ? "influencers-first" : "random",
                          static_cast<double>(consensus) / static_cast<double>(trials),
                          share / static_cast<double>(trials),
                          rounds / static_cast<double>(trials));
        }
    }
    table.print(out);

    out << "\ncontrast with the torus (the paper's substrate): the engineered\n"
                 "Theorem-2 seeding reaches full consensus with only m+n-2 = ";
    grid::Torus torus(grid::Topology::ToroidalMesh, 22, 23);
    const Configuration cfg = build_theorem2_configuration(torus);
    const RunResult trace = simulate(torus, cfg.field);
    out << cfg.seeds.size() << " of " << torus.size() << " agents ("
              << (trace.termination == Termination::Monochromatic ? "verified" : "FAILED")
              << ", " << trace.rounds << " rounds) - structure substitutes for budget when\n"
              << "the influence graph is known exactly.\n";
    return 0;
}

[[maybe_unused]] const bool registered = dynamo::scenario::register_scenario({
    "opinion_scalefree",
    "example",
    "Opinion dynamics on a Barabasi-Albert society: budget x strategy consensus "
    "sweep on the BatchRunner",
    0,
    {
        {"n", dynamo::scenario::ParamType::Int, "500", "80", "society size"},
        {"trials", dynamo::scenario::ParamType::Int, "15", "2", "trials per cell"},
        {"kind", dynamo::scenario::ParamType::String, "ba", "",
         "society topology (graph/builder.hpp kind names)"},
        {"gparam", dynamo::scenario::ParamType::Double, "3", "",
         "kind-specific graph parameter (<= 0 = the kind's default)"},
    },
    &scenario_main,
});

} // namespace
