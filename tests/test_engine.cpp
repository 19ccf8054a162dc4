// Engine tests: synchronous double-buffered semantics, termination
// classification (monochromatic / fixed point / cycle / cap), target-color
// bookkeeping, and serial == parallel determinism.
#include <gtest/gtest.h>

#include "core/builders.hpp"
#include "core/run/simulate.hpp"
#include "core/sync_engine.hpp"

namespace dynamo {
namespace {

using grid::Topology;
using grid::Torus;

ColorField checkerboard(const Torus& t, Color a, Color b) {
    ColorField f(t.size());
    for (grid::VertexId v = 0; v < t.size(); ++v) {
        const auto c = t.coord(v);
        f[v] = ((c.i + c.j) % 2 == 0) ? a : b;
    }
    return f;
}

TEST(Engine, RejectsIncompleteFields) {
    Torus t(Topology::ToroidalMesh, 4, 4);
    ColorField too_small(7, 1);
    EXPECT_THROW(SyncEngine(t, too_small), std::invalid_argument);
    ColorField with_unset(t.size(), 1);
    with_unset[3] = kUnset;
    EXPECT_THROW(SyncEngine(t, with_unset), std::invalid_argument);
}

TEST(Engine, MonochromaticInputTerminatesAtRoundZero) {
    Torus t(Topology::TorusCordalis, 4, 4);
    const RunResult trace = simulate(t, ColorField(t.size(), 3));
    EXPECT_EQ(trace.termination, Termination::Monochromatic);
    EXPECT_EQ(trace.rounds, 0u);
    ASSERT_TRUE(trace.mono.has_value());
    EXPECT_EQ(*trace.mono, 3);
}

TEST(Engine, CheckerboardOscillatesWithPeriodTwo) {
    // On an even torus every vertex sees 4x the opposite color, so the whole
    // board flips each round: the canonical period-2 limit cycle.
    Torus t(Topology::ToroidalMesh, 4, 4);
    const RunResult trace = simulate(t, checkerboard(t, 1, 2));
    EXPECT_EQ(trace.termination, Termination::Cycle);
    EXPECT_EQ(trace.cycle_period, 2u);
}

TEST(Engine, CheckerboardStepFlipsEveryVertex) {
    Torus t(Topology::ToroidalMesh, 4, 4);
    SyncEngine engine(t, checkerboard(t, 1, 2));
    const std::size_t changed = engine.step();
    EXPECT_EQ(changed, t.size());
    EXPECT_EQ(engine.colors(), checkerboard(t, 2, 1));
    EXPECT_EQ(engine.round(), 1u);
}

TEST(Engine, StalledStripesAreAFixedPointWithZeroRecolorings) {
    // The Figure-4 counterexample: no recoloring can arise at all.
    Torus t(Topology::ToroidalMesh, 6, 7);
    const Configuration cfg = build_fig4_stalled_configuration(t);
    RunOptions opts;
    opts.target = cfg.k;
    const RunResult trace = simulate(t, cfg.field, opts);
    EXPECT_EQ(trace.termination, Termination::FixedPoint);
    EXPECT_EQ(trace.rounds, 0u);
    EXPECT_EQ(trace.total_recolorings, 0u);
    EXPECT_TRUE(trace.monotone);
}

TEST(Engine, RoundLimitIsHonored) {
    Torus t(Topology::ToroidalMesh, 4, 4);
    RunOptions opts;
    opts.max_rounds = 1;
    opts.detect_cycles = false;
    const RunResult trace = simulate(t, checkerboard(t, 1, 2), opts);
    EXPECT_EQ(trace.termination, Termination::RoundLimit);
    EXPECT_EQ(trace.rounds, 1u);
}

TEST(Engine, TargetBookkeepingOnADynamo) {
    Torus t(Topology::ToroidalMesh, 6, 6);
    const Configuration cfg = build_theorem2_configuration(t);
    RunOptions opts;
    opts.target = cfg.k;
    const RunResult trace = simulate(t, cfg.field, opts);
    ASSERT_TRUE(trace.reached_mono(cfg.k));
    EXPECT_TRUE(trace.monotone);

    // k_time: seeds at 0, everything else in [1, rounds], none missing.
    ASSERT_EQ(trace.k_time.size(), t.size());
    std::size_t seeds = 0;
    for (grid::VertexId v = 0; v < t.size(); ++v) {
        ASSERT_NE(trace.k_time[v], kNeverK);
        EXPECT_LE(trace.k_time[v], trace.rounds);
        if (trace.k_time[v] == 0) ++seeds;
    }
    EXPECT_EQ(seeds, cfg.seeds.size());

    // newly_k: one bucket per round, summing to |V|, consistent with k_time.
    ASSERT_EQ(trace.newly_k.size(), trace.rounds + 1);
    std::size_t total = 0;
    for (std::uint32_t r = 0; r <= trace.rounds; ++r) {
        std::size_t expected = 0;
        for (grid::VertexId v = 0; v < t.size(); ++v) expected += (trace.k_time[v] == r);
        EXPECT_EQ(trace.newly_k[r], expected) << "round " << r;
        total += trace.newly_k[r];
    }
    EXPECT_EQ(total, t.size());
    // The final wavefront is never empty for a dynamo.
    EXPECT_GT(trace.newly_k.back(), 0u);
}

TEST(Engine, DetectsNonMonotoneTargetEvolution) {
    // Hand-built eroding seed: a single k vertex surrounded by a hostile
    // 3-plurality flips away at round 1.
    Torus t(Topology::ToroidalMesh, 4, 4);
    ColorField f(t.size(), 0);
    // Give every vertex color 2/3 alternating columns (a stall pattern),
    // then plant k=1 at (1,1) with three color-2 neighbors.
    for (grid::VertexId v = 0; v < t.size(); ++v) {
        f[v] = (t.coord(v).j % 2 == 0) ? 2 : 3;
    }
    f[t.index(1, 1)] = 1;
    f[t.index(0, 1)] = 2;
    f[t.index(2, 1)] = 2;
    f[t.index(1, 0)] = 2;
    RunOptions opts;
    opts.target = 1;
    const RunResult trace = simulate(t, f, opts);
    EXPECT_FALSE(trace.monotone);
    EXPECT_EQ(count_color(trace.final_colors, 1), 0u);
}

TEST(Engine, SerialAndParallelTracesAreIdentical) {
    Torus t(Topology::TorusCordalis, 24, 31);
    const Configuration cfg = build_theorem4_configuration(t);

    RunOptions serial;
    serial.target = cfg.k;
    const RunResult a = simulate(t, cfg.field, serial);

    for (const unsigned workers : {2u, 3u, 5u}) {
        ThreadPool pool(workers);
        RunOptions par;
        par.target = cfg.k;
        par.pool = &pool;
        par.parallel_grain = 8;  // force multi-block execution
        const RunResult b = simulate(t, cfg.field, par);
        EXPECT_EQ(a.termination, b.termination) << workers;
        EXPECT_EQ(a.rounds, b.rounds) << workers;
        EXPECT_EQ(a.k_time, b.k_time) << workers;
        EXPECT_EQ(a.final_colors, b.final_colors) << workers;
        EXPECT_EQ(a.total_recolorings, b.total_recolorings) << workers;
    }
}

TEST(Engine, StepCountsChangedVerticesExactly) {
    Torus t(Topology::ToroidalMesh, 8, 8);
    const Configuration cfg = build_full_cross_configuration(t);
    SyncEngine engine(t, cfg.field);
    ColorField before = engine.colors();
    const std::size_t changed = engine.step();
    std::size_t expected = 0;
    for (grid::VertexId v = 0; v < t.size(); ++v) {
        expected += (engine.colors()[v] != before[v]);
    }
    EXPECT_EQ(changed, expected);
    EXPECT_GT(changed, 0u);
}

TEST(Engine, MonochromaticStateIsAFixedPointOfTheRule) {
    // Invariant claimed in the header: once monochromatic, forever
    // monochromatic (any unanimous neighborhood re-adopts itself).
    Torus t(Topology::TorusSerpentinus, 5, 5);
    SyncEngine engine(t, ColorField(t.size(), 4));
    EXPECT_EQ(engine.step(), 0u);
    EXPECT_TRUE(is_monochromatic(engine.colors(), 4));
}

TEST(Engine, TraceRecoloringsMatchWaveSizesOnMonotoneRun) {
    Torus t(Topology::ToroidalMesh, 7, 9);
    const Configuration cfg = build_full_cross_configuration(t);
    RunOptions opts;
    opts.target = cfg.k;
    const RunResult trace = simulate(t, cfg.field, opts);
    ASSERT_TRUE(trace.reached_mono(cfg.k));
    // On a monotone run where only k-adoptions happen, total recolorings
    // equal the non-seed vertex count.
    EXPECT_EQ(trace.total_recolorings, t.size() - cfg.seeds.size());
}

} // namespace
} // namespace dynamo
