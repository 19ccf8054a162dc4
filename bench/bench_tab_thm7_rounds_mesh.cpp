// Regenerates the Theorem 7 evaluation: rounds to reach the monochromatic
// configuration on the toroidal mesh, for (a) the full-cross configuration
// the Figure-5 wave describes and (b) the minimum (m+n-2) Theorem-2
// configuration, against the paper's formula
//     2 * max(ceil((n-1)/2) - 1, ceil((m-1)/2) - 1) + 1
// and the derived sum form ceil((m-1)/2) + ceil((n-1)/2) - 1 (deviation D1:
// the paper's 2*max form is exact only on squares).
#include "bench_common.hpp"

#include "scenario/scenario.hpp"

namespace {

int scenario_main(dynamo::scenario::Context& ctx) {
    std::ostream& out = ctx.out;
    using namespace dynamo;
    using namespace dynamo::bench;
    const CliArgs& args = ctx.args;
    const auto max_dim = static_cast<std::uint32_t>(args.get_int("max-dim", 15));

    print_banner(out, "Theorem 7 - mesh rounds: full-cross configuration (Figure 5 wave)");
    ConsoleTable cross({"m", "n", "measured", "paper 2*max", "vs paper", "derived sum",
                        "vs derived"});
    std::size_t square_match = 0, square_total = 0, derived_match = 0, total = 0;
    for (std::uint32_t m = 3; m <= max_dim; m += (m < 9 ? 1 : 2)) {
        for (std::uint32_t n = 3; n <= max_dim; n += (n < 9 ? 1 : 2)) {
            grid::Torus torus(grid::Topology::ToroidalMesh, m, n);
            const Configuration cfg = build_full_cross_configuration(torus);
            const RunResult trace = run_traced(torus, cfg);
            const std::uint32_t paper = mesh_rounds_paper(m, n);
            const std::uint32_t derived = mesh_rounds_cross_derived(m, n);
            cross.add_row(m, n, trace.rounds, paper, match_tag(trace.rounds, paper), derived,
                          match_tag(trace.rounds, derived));
            ++total;
            derived_match += (trace.rounds == derived);
            if (m == n) {
                ++square_total;
                square_match += (trace.rounds == paper);
            }
        }
    }
    cross.print(out);
    out << "square meshes matching the paper formula: " << square_match << "/"
              << square_total << "\nall meshes matching the derived sum formula: "
              << derived_match << "/" << total << '\n';

    print_banner(out, "Theorem 7 - mesh rounds: minimum (m+n-2) Theorem-2 configuration");
    ConsoleTable minimal({"m", "n", "measured", "derived cross formula", "delta"});
    std::size_t within_one = 0, total2 = 0;
    for (std::uint32_t m = 3; m <= max_dim; m += 2) {
        for (std::uint32_t n = 3; n <= max_dim; n += 2) {
            grid::Torus torus(grid::Topology::ToroidalMesh, m, n);
            const Configuration cfg = build_theorem2_configuration(torus);
            const RunResult trace = run_traced(torus, cfg);
            const std::uint32_t derived = mesh_rounds_cross_derived(m, n);
            minimal.add_row(m, n, trace.rounds, derived, match_tag(trace.rounds, derived));
            ++total2;
            within_one += (trace.rounds >= derived && trace.rounds <= derived + 1);
        }
    }
    minimal.print(out);
    out << "within +1 of the cross formula: " << within_one << "/" << total2
              << " (the pendant delays two of the four corner waves by one round)\n";
    return 0;
}

[[maybe_unused]] const bool registered = dynamo::scenario::register_scenario({
    "tab_thm7_rounds_mesh",
    "table",
    "Theorem 7 - rounds to monochromatic on the mesh vs the paper and derived "
    "formulas (deviation D1)",
    0,
    {
        {"max-dim", dynamo::scenario::ParamType::Int, "15", "5", "sweep upper bound"},
    },
    &scenario_main,
});

} // namespace
