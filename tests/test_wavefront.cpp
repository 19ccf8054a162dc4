// Wavefront analysis: shape statistics of dynamo waves - the mesh's
// unimodal diamond vs the spiral's constant-speed front, and accounting
// identities against the trace.
#include <gtest/gtest.h>

#include "analysis/wavefront.hpp"
#include "core/builders.hpp"
#include "core/run/simulate.hpp"

namespace dynamo::analysis {
namespace {

using grid::Topology;
using grid::Torus;

RunResult traced_run(const Torus& t, const Configuration& cfg) {
    RunOptions opts;
    opts.target = cfg.k;
    return simulate(t, cfg.field, opts);
}

TEST(Wavefront, AccountingMatchesTheTrace) {
    Torus t(Topology::ToroidalMesh, 9, 9);
    const Configuration cfg = build_theorem2_configuration(t);
    const RunResult trace = traced_run(t, cfg);
    const WavefrontStats s = wavefront_stats(trace);
    EXPECT_EQ(s.seeds, cfg.seeds.size());
    EXPECT_EQ(s.total_adopted, t.size() - cfg.seeds.size());
    EXPECT_LE(s.rounds, trace.rounds);
    EXPECT_GE(s.peak, 1u);
    EXPECT_GE(s.peak_round, 1u);
    EXPECT_GT(s.speed(), 0.0);
    EXPECT_NEAR(s.mean_front, s.speed(), 1e-12);
}

TEST(Wavefront, MeshDiamondWaveIsUnimodal) {
    // The cross wave grows from the corners to the diagonal, then shrinks:
    // one peak in the middle of the run.
    Torus t(Topology::ToroidalMesh, 11, 11);
    const Configuration cfg = build_full_cross_configuration(t);
    const RunResult trace = traced_run(t, cfg);
    EXPECT_TRUE(front_is_unimodal(trace));
    const WavefrontStats s = wavefront_stats(trace);
    EXPECT_GT(s.peak_round, 1u);
    EXPECT_LT(s.peak_round, trace.rounds);
}

TEST(Wavefront, SpiralWaveAdvancesAtConstantSpeed) {
    // On the cordalis the two row-waves adopt ~2 cells per round for the
    // bulk of the run (the Theorem 8 proof's picture).
    Torus t(Topology::TorusCordalis, 9, 9);
    const Configuration cfg = build_theorem4_configuration(t);
    const RunResult trace = traced_run(t, cfg);
    std::size_t twos = 0, active = 0;
    for (std::uint32_t r = 1; r < trace.newly_k.size(); ++r) {
        if (trace.newly_k[r] == 0) continue;
        ++active;
        twos += (trace.newly_k[r] == 2);
    }
    EXPECT_GE(twos * 2, active);  // at least half the rounds adopt exactly 2
    const WavefrontStats s = wavefront_stats(trace);
    EXPECT_LT(s.peak, 8u);  // no wide diamond fronts on the spiral
}

TEST(Wavefront, CumulativeShareIsMonotoneAndEndsAtOne) {
    Torus t(Topology::TorusSerpentinus, 8, 7);
    const Configuration cfg = build_minimum_dynamo(t);
    const RunResult trace = traced_run(t, cfg);
    const std::vector<double> shares = cumulative_k_share(trace, t.size());
    ASSERT_FALSE(shares.empty());
    for (std::size_t r = 1; r < shares.size(); ++r) EXPECT_GE(shares[r], shares[r - 1]);
    EXPECT_DOUBLE_EQ(shares.back(), 1.0);
    EXPECT_DOUBLE_EQ(shares.front(),
                     static_cast<double>(cfg.seeds.size()) / static_cast<double>(t.size()));
}

TEST(Wavefront, RequiresTrackedTraces) {
    Torus t(Topology::ToroidalMesh, 5, 5);
    const Configuration cfg = build_theorem2_configuration(t);
    const RunResult untracked = simulate(t, cfg.field);  // no target
    EXPECT_THROW(wavefront_stats(untracked), std::invalid_argument);
}

} // namespace
} // namespace dynamo::analysis
