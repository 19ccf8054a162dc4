// Experiment M1: average-case complement to the paper's worst/best-case
// bounds - probability that a uniformly random initial coloring with
// k-density rho reaches the k-monochromatic configuration, per topology,
// with conditional round counts and terminal-behaviour census.
#include "analysis/montecarlo.hpp"
#include "analysis/stats.hpp"

#include "bench_common.hpp"

#include "scenario/scenario.hpp"

namespace {

int scenario_main(dynamo::scenario::Context& ctx) {
    std::ostream& out = ctx.out;
    using namespace dynamo;
    using namespace dynamo::bench;
    const CliArgs& args = ctx.args;
    const auto m = static_cast<std::uint32_t>(args.get_int("m", 12));
    const auto n = static_cast<std::uint32_t>(args.get_int("n", 12));
    const auto trials = static_cast<std::size_t>(args.get_int("trials", 120));
    const auto colors = static_cast<Color>(args.get_int("colors", 4));
    const auto workers_arg = args.get_int("workers", 0);
    const auto workers =
        workers_arg > 0 ? static_cast<unsigned>(workers_arg) : ThreadPool::default_threads();

    // Across-trial parallelism (BatchRunner): per-trial RNG substreams make
    // every cell identical to the serial run, so the pool is free speedup.
    ThreadPool pool(workers);

    const std::vector<double> densities{0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.7, 0.85};

    for (const grid::Topology topo :
         {grid::Topology::ToroidalMesh, grid::Topology::TorusCordalis,
          grid::Topology::TorusSerpentinus}) {
        print_banner(out, std::string("M1 - random-seeding density sweep on the ") +
                                    to_string(topo) + " (" + std::to_string(m) + "x" +
                                    std::to_string(n) + ", |C|=" +
                                    std::to_string(int(colors)) + ")");
        grid::Torus torus(topo, m, n);
        const auto points =
            analysis::run_density_sweep(torus, 1, densities, colors, trials, 0xd00d, &pool);

        ConsoleTable table({"density", "P(k-mono)", "lo95", "hi95", "95% halfwidth",
                            "P(other mono)", "cycles", "fixed pts", "mean rounds|mono",
                            "mean final k-share"});
        for (const auto& p : points) {
            table.add_row(p.density, p.p_k_mono(), p.p_ci_lower(), p.p_ci_upper(),
                          p.p_ci_half(),
                          static_cast<double>(p.other_mono) / static_cast<double>(p.trials),
                          p.cycles, p.fixed_points, p.mean_rounds_mono,
                          p.mean_final_k_fraction);
        }
        table.print(out);
    }
    out << "\nshape: a sharp threshold separates k-extinction from k-consensus as the\n"
                 "seed density crosses the plurality balance point (~1/|C| against the\n"
                 "strongest rival); engineered dynamos beat random seeding by orders of\n"
                 "magnitude in seed budget - the point of the paper's constructions.\n"
              << trials << " trials per density; seed 0xd00d; reproducible.\n";
    return 0;
}

[[maybe_unused]] const bool registered = dynamo::scenario::register_scenario({
    "tab_montecarlo_density",
    "table",
    "M1 - random-seeding density sweep per topology with terminal-behaviour census",
    0,
    {
        {"m", dynamo::scenario::ParamType::Int, "12", "6", "torus rows"},
        {"n", dynamo::scenario::ParamType::Int, "12", "6", "torus columns"},
        {"trials", dynamo::scenario::ParamType::Count, "120", "8", "trials per density"},
        {"colors", dynamo::scenario::ParamType::Int, "4", "3", "palette size |C|"},
        {"workers", dynamo::scenario::ParamType::Int, "0", "2", "worker threads (0 = hardware)"},
    },
    &scenario_main,
});

} // namespace
