// Lane engine vs the scalar run path: every lane of a batch must report
// exactly what rule.run reports for that lane's field alone (termination,
// rounds, mono color, final k-count), for every registered rule, topology
// and ragged batch width - including initially monochromatic lanes, the
// hand-off of a period >= 3 cycle back to the scalar engine, and a
// palette the lane planes cannot hold.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/montecarlo.hpp"
#include "core/run/batch.hpp"
#include "core/run/simulate.hpp"
#include "core/sim/kernels.hpp"
#include "core/sim/lane_engine.hpp"
#include "core/transform.hpp"
#include "grid/torus.hpp"
#include "rules/registry.hpp"

namespace dynamo {
namespace {

using grid::Topology;
using grid::Torus;

constexpr Topology kTopologies[] = {Topology::ToroidalMesh, Topology::TorusCordalis,
                                    Topology::TorusSerpentinus};

/// `lanes` random fields, lane-major, lane t drawn from substream (seed, t).
std::vector<Color> lane_fields(const Torus& torus, std::size_t lanes, Color k, Color colors,
                               double density, std::uint64_t seed) {
    std::vector<Color> fields;
    fields.reserve(lanes * torus.size());
    for (std::size_t t = 0; t < lanes; ++t) {
        Xoshiro256 rng(substream_seed(seed, t));
        const ColorField field = analysis::random_coloring(torus.size(), k, colors, density, rng);
        fields.insert(fields.end(), field.begin(), field.end());
    }
    return fields;
}

/// Runs the batch through rule.run_lanes and compares every lane against
/// the scalar entry point on the same field.
void expect_lanes_match_scalar(const rules::RuleInfo& rule, const Torus& torus,
                               const std::vector<Color>& fields, std::size_t lanes, Color k,
                               const std::string& label) {
    ASSERT_NE(rule.run_lanes, nullptr) << rule.name;
    std::vector<RunSummary> out(lanes);
    rule.run_lanes(torus, fields.data(), lanes, k, out.data());
    for (std::size_t t = 0; t < lanes; ++t) {
        const Color* lane = fields.data() + t * torus.size();
        const ColorField field(lane, lane + torus.size());
        const RunSummary scalar = summarize(rule.run(torus, field, {}), k);
        EXPECT_EQ(out[t].termination, scalar.termination) << label << " lane " << t;
        EXPECT_EQ(out[t].rounds, scalar.rounds) << label << " lane " << t;
        EXPECT_EQ(out[t].mono, scalar.mono) << label << " lane " << t;
        EXPECT_EQ(out[t].final_k, scalar.final_k) << label << " lane " << t;
    }
}

TEST(LaneEngine, EveryLaneMatchesTheScalarRunForEveryRuleAndTopology) {
    for (const rules::RuleInfo* rule : rules::all_rules()) {
        const Color k = rule->bicolor() ? kBlack : Color(1);
        const std::vector<Color> palettes =
            rule->bicolor() ? std::vector<Color>{2} : std::vector<Color>{4, sim::kLaneMaxColors};
        for (const Topology topo : kTopologies) {
            const Torus torus(topo, 8, 9);
            for (const Color colors : palettes) {
                for (const double density : {0.0, 0.3, 0.5, 1.0}) {
                    for (const std::size_t lanes : {1u, 7u, 63u, 64u}) {
                        const std::string label = std::string(rule->name) + " " +
                                                  grid::to_string(topo) + " |C|=" +
                                                  std::to_string(colors) + " rho=" +
                                                  std::to_string(density) + " lanes=" +
                                                  std::to_string(lanes);
                        const auto fields =
                            lane_fields(torus, lanes, k, colors, density, 0x1a9e + lanes);
                        expect_lanes_match_scalar(*rule, torus, fields, lanes, k, label);
                    }
                }
            }
        }
    }
}

TEST(LaneEngine, PeriodFourCycleIsHandedOffToTheScalarEngine) {
    // Pinned: this smp trial on the 8x8 mesh ends in a cycle of period 4
    // after 11 rounds, which no t-2 comparison can see.
    const Torus torus(Topology::ToroidalMesh, 8, 8);
    Xoshiro256 rng(substream_seed(7, 97));
    const ColorField cycling = analysis::random_coloring(torus.size(), 1, 4, 0.3, rng);
    const RunResult scalar = simulate(torus, cycling);
    ASSERT_EQ(scalar.termination, Termination::Cycle);
    ASSERT_EQ(scalar.cycle_period, 4u);
    ASSERT_EQ(scalar.rounds, 11u);

    // Put it in lane 5 of a 7-lane batch of ordinary trials.
    std::vector<Color> fields = lane_fields(torus, 7, 1, 4, 0.3, 0xc7c1e);
    std::copy(cycling.begin(), cycling.end(),
              fields.begin() + static_cast<std::ptrdiff_t>(5 * torus.size()));
    std::vector<RunSummary> out(7);
    const sim::Word live = sim::run_lanes<sim::SmpRule>(torus, fields.data(), 7, 1, out.data());
    EXPECT_NE(live & (sim::Word{1} << 5), 0u) << "the period-4 lane must be left live";

    expect_lanes_match_scalar(rules::smp_rule(), torus, fields, 7, 1, "smp hand-off");
}

TEST(LaneEngine, PalettesTheLanePlanesCannotHoldTakeTheScalarPath) {
    // Color 8 has no 3-plane encoding; with k = 8 the lane engine would
    // refuse the target outright, so a clean run that matches the
    // explicit scalar backend shows the Auto batch stayed scalar.
    const Torus torus(Topology::TorusCordalis, 6, 6);
    const rules::RuleInfo& smp = rules::smp_rule();
    const analysis::DensityPoint point =
        analysis::run_density_point(torus, 8, 0.4, 8, 40, 0xbeef, nullptr, &smp, Backend::Auto);
    const analysis::DensityPoint scalar = analysis::run_density_point(
        torus, 8, 0.4, 8, 40, 0xbeef, nullptr, &smp, Backend::Active);
    EXPECT_EQ(point.trials, 40u);
    EXPECT_EQ(point.k_mono, scalar.k_mono);
    EXPECT_EQ(point.other_mono, scalar.other_mono);
    EXPECT_EQ(point.cycles, scalar.cycles);
    EXPECT_EQ(point.fixed_points, scalar.fixed_points);
    EXPECT_DOUBLE_EQ(point.mean_rounds_mono, scalar.mean_rounds_mono);
    EXPECT_DOUBLE_EQ(point.mean_final_k_fraction, scalar.mean_final_k_fraction);

    std::vector<RunSummary> out(1);
    const std::vector<Color> field(torus.size(), 8);
    EXPECT_THROW(smp.run_lanes(torus, field.data(), 1, 8, out.data()), std::invalid_argument);
}

TEST(LaneEngine, AutoDensityPointsMatchTheScalarBackendForEveryRule) {
    // The Monte-Carlo route: Backend::Auto batches run on lanes, the
    // explicit Active backend trial by trial; the census must not move.
    const Torus torus(Topology::TorusSerpentinus, 7, 6);
    for (const rules::RuleInfo* rule : rules::all_rules()) {
        const Color k = rule->bicolor() ? kBlack : Color(1);
        const Color colors = rule->bicolor() ? 2 : 4;
        const analysis::DensityPoint lanes = analysis::run_density_point(
            torus, k, 0.45, colors, 150, 0x5eed, nullptr, rule, Backend::Auto);
        const analysis::DensityPoint scalar = analysis::run_density_point(
            torus, k, 0.45, colors, 150, 0x5eed, nullptr, rule, Backend::Active);
        EXPECT_EQ(lanes.k_mono, scalar.k_mono) << rule->name;
        EXPECT_EQ(lanes.other_mono, scalar.other_mono) << rule->name;
        EXPECT_EQ(lanes.cycles, scalar.cycles) << rule->name;
        EXPECT_EQ(lanes.fixed_points, scalar.fixed_points) << rule->name;
        EXPECT_DOUBLE_EQ(lanes.mean_rounds_mono, scalar.mean_rounds_mono) << rule->name;
        EXPECT_DOUBLE_EQ(lanes.mean_final_k_fraction, scalar.mean_final_k_fraction)
            << rule->name;
    }
}

} // namespace
} // namespace dynamo
