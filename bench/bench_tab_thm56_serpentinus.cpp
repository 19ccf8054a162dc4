// Regenerates the Theorem 5 / Theorem 6 evaluation for the torus
// serpentinus: the N+1 construction in both orientations (full row + one
// when N = n; full column + one when N = m), condition checks and
// monotone-dynamo verification across a size sweep.
#include "bench_common.hpp"

#include "scenario/scenario.hpp"

namespace {

int scenario_main(dynamo::scenario::Context& ctx) {
    std::ostream& out = ctx.out;
    using namespace dynamo;
    using namespace dynamo::bench;
    const CliArgs& args = ctx.args;
    const auto max_dim = static_cast<std::uint32_t>(args.get_int("max-dim", 16));

    print_banner(out,
                 "Theorems 5 & 6 - serpentinus dynamo size: construction vs bound N+1");
    ConsoleTable table({"m", "n", "orientation", "bound N+1", "|S_k| built", "|C|",
                        "conditions", "monotone dynamo", "rounds"});
    for (std::uint32_t m = 3; m <= max_dim; m += (m < 8 ? 1 : 3)) {
        for (std::uint32_t n = 3; n <= max_dim; n += (n < 8 ? 2 : 4)) {
            grid::Torus torus(grid::Topology::TorusSerpentinus, m, n);
            const Configuration cfg = build_theorem6_configuration(torus);
            const ConditionReport rep = check_theorem_conditions(torus, cfg.field, cfg.k);
            const RunResult trace = run_traced(torus, cfg);
            table.add_row(m, n, n <= m ? "row (N=n)" : "column (N=m)",
                          serpentinus_size_lower_bound(m, n), cfg.seeds.size(),
                          static_cast<int>(cfg.colors_used), rep.ok() ? "hold" : "VIOLATED",
                          yesno(trace.reached_mono(cfg.k) && trace.monotone), trace.rounds);
        }
    }
    table.print(out);
    out << "expectation: |S_k| = min(m, n) + 1 in every row; both orientations verify\n"
                 "as monotone dynamos (the column orientation has no Theorem-8 round formula\n"
                 "in the paper; measured rounds are tabulated by the Theorem 8 bench).\n";
    return 0;
}

[[maybe_unused]] const bool registered = dynamo::scenario::register_scenario({
    "tab_thm56_serpentinus",
    "table",
    "Theorems 5 & 6 - serpentinus dynamo size vs the N+1 bound in both orientations",
    0,
    {
        {"max-dim", dynamo::scenario::ParamType::Int, "16", "6", "sweep upper bound"},
    },
    &scenario_main,
});

} // namespace
