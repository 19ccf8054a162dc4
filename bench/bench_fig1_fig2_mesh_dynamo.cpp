// Regenerates Figures 1 and 2: the minimum-size monotone dynamo on the
// 9x9 toroidal mesh (|S_k| = m + n - 2 = 16, the size quoted under
// Figure 1) - the seed layout, the 4-color neighbor pattern satisfying
// Theorem 2's conditions, verification that it is a monotone dynamo, and
// the recoloring schedule.
//
//   --m=<rows> --n=<cols>   alternate sizes (default 9x9, the paper's)
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

    print_banner(out, "Figures 1 & 2 - minimum monotone dynamo on the toroidal mesh");
    out << "paper: |S_k| = m + n - 2 = " << mesh_size_lower_bound(m, n) << " on a " << m
              << "x" << n << " mesh; seeds = column 0 + row 0 minus (0, n-1)\n";

    grid::Torus torus(grid::Topology::ToroidalMesh, m, n);
    const Configuration cfg = build_theorem2_configuration(torus);

    out << "\nFigure 1 (seed layout; B = k-colored seed):\n";
    ColorField seeds_only(torus.size(), 2);
    for (const grid::VertexId v : cfg.seeds) seeds_only[v] = cfg.k;
    // Render with all non-seeds as one tone, like the paper's B/W figure.
    out << io::render_field(torus, seeds_only, cfg.k);

    out << "\nFigure 2 (full coloring; letters = foreign colors):\n"
              << io::render_field(torus, cfg.field, cfg.k);

    const ConditionReport rep = check_theorem_conditions(torus, cfg.field, cfg.k);
    const Stopwatch sw;
    const RunResult trace = run_traced(torus, cfg);

    ConsoleTable table({"quantity", "paper", "measured", "status"});
    table.add_row("|S_k|", mesh_size_lower_bound(m, n), cfg.seeds.size(),
                  match_tag(static_cast<std::uint32_t>(cfg.seeds.size()),
                            mesh_size_lower_bound(m, n)));
    table.add_row("|C| needed", ">= 4", static_cast<int>(cfg.colors_used),
                  cfg.colors_used >= 4 ? "consistent" : "VIOLATION");
    table.add_row("Theorem 2 conditions", "hold", rep.ok() ? "hold" : rep.violation,
                  rep.ok() ? "match" : "FAIL");
    table.add_row("monotone dynamo", "yes", yesno(trace.reached_mono(cfg.k) && trace.monotone),
                  trace.reached_mono(cfg.k) && trace.monotone ? "match" : "FAIL");
    table.add_row("rounds to monochromatic", "-", trace.rounds, "see Theorem 7 bench");
    out << '\n';
    table.print(out);

    out << "\nrecoloring schedule (rounds until k, per vertex):\n"
              << io::render_time_matrix(torus, trace.k_time);
    out << "wavefront: " << io::render_wavefront(trace.newly_k) << '\n';
    out << "wall time: " << sw.millis() << " ms\n";
    return 0;
}

[[maybe_unused]] const bool registered = dynamo::scenario::register_scenario({
    "fig1_fig2_mesh_dynamo",
    "figure",
    "Figures 1 & 2 - the minimum monotone dynamo on the toroidal mesh: seed layout, "
    "coloring, verification, recoloring schedule",
    0,
    {
        {"m", dynamo::scenario::ParamType::Int, "9", "5", "torus rows"},
        {"n", dynamo::scenario::ParamType::Int, "9", "5", "torus columns"},
    },
    &scenario_main,
});

} // namespace
