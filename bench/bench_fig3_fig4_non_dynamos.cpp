// Regenerates Figures 3 and 4: configurations whose black nodes do NOT
// constitute a dynamo.
//
//   Figure 3 flavor: the Theorem-2 seed cross with the neighbor conditions
//   violated by a hostile 2x2 foreign block - the block is invariant
//   (Definition 4) and the k-wave can never complete.
//
//   Figure 4 flavor: a configuration where "no recoloring can arise" - a
//   k column plus vertically monochromatic foreign stripes is a global
//   fixed point of the SMP rule.
#include "core/blocks.hpp"

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
    grid::Torus torus(grid::Topology::ToroidalMesh, m, n);

    print_banner(out, "Figure 3 - black nodes do not constitute a dynamo");
    {
        const Configuration cfg = build_fig3_blocked_configuration(torus);
        out << "configuration (" << m << "x" << n
                  << ", Theorem-2 seeds + hostile 2x2 block violating the conditions):\n"
                  << io::render_field(torus, cfg.field, cfg.k);

        const ConditionReport rep = check_theorem_conditions(torus, cfg.field, cfg.k);
        const RunResult trace = run_traced(torus, cfg);
        const Color hostile = cfg.field[torus.index(m / 2, n / 2)];

        ConsoleTable table({"quantity", "paper", "measured", "status"});
        table.add_row("Theorem 2 conditions", "violated", rep.ok() ? "hold" : "violated",
                      rep.ok() ? "FAIL" : "match");
        table.add_row("is a dynamo", "no", yesno(trace.reached_mono(cfg.k)),
                      trace.reached_mono(cfg.k) ? "FAIL" : "match");
        table.add_row("termination", "stuck", to_string(trace.termination), "-");
        table.add_row("foreign block survives", "yes",
                      yesno(has_k_block(torus, trace.final_colors, hostile)),
                      has_k_block(torus, trace.final_colors, hostile) ? "match" : "FAIL");
        table.print(out);
        out << "\nfinal configuration (the hostile block persists):\n"
                  << io::render_field(torus, trace.final_colors, cfg.k);
    }

    print_banner(out, "Figure 4 - a configuration where no recoloring can arise");
    {
        const Configuration cfg = build_fig4_stalled_configuration(torus);
        out << "configuration (k column + alternating vertical stripes):\n"
                  << io::render_field(torus, cfg.field, cfg.k);

        const RunResult trace = run_traced(torus, cfg);
        ConsoleTable table({"quantity", "paper", "measured", "status"});
        table.add_row("total recolorings", "0", trace.total_recolorings,
                      trace.total_recolorings == 0 ? "match" : "FAIL");
        table.add_row("termination", "fixed-point", to_string(trace.termination),
                      trace.termination == Termination::FixedPoint ? "match" : "FAIL");
        table.add_row("non-k-block certificate", "exists",
                      yesno(has_non_dynamo_certificate(torus, cfg.field, cfg.k)),
                      has_non_dynamo_certificate(torus, cfg.field, cfg.k) ? "match" : "FAIL");
        table.print(out);
    }
    return 0;
}

[[maybe_unused]] const bool registered = dynamo::scenario::register_scenario({
    "fig3_fig4_non_dynamos",
    "figure",
    "Figures 3 & 4 - configurations whose black nodes do NOT constitute a dynamo "
    "(hostile block / global fixed point)",
    0,
    {
        {"m", dynamo::scenario::ParamType::Int, "9", "", "torus rows"},
        {"n", dynamo::scenario::ParamType::Int, "9", "", "torus columns"},
    },
    &scenario_main,
});

} // namespace
