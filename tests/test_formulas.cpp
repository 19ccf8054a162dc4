// Round-count reproduction (Theorems 7/8, Figures 5/6): exact matrix
// matches for the paper's 5x5 examples, formula equality where the
// reproduction verified it, and the documented deviations (DESIGN.md
// section 4) pinned as characterization tests.
#include <gtest/gtest.h>

#include "core/bounds.hpp"
#include "core/builders.hpp"
#include "core/dynamo.hpp"
#include "core/run/simulate.hpp"

namespace dynamo {
namespace {

using grid::Topology;
using grid::Torus;

RunResult run_with_target(const Torus& t, const Configuration& cfg) {
    RunOptions opts;
    opts.target = cfg.k;
    return simulate(t, cfg.field, opts);
}

// --- Figure 5: the toroidal-mesh wave matrix ---------------------------------

TEST(Figure5, ExactRecoloringTimeMatrix) {
    Torus t(Topology::ToroidalMesh, 5, 5);
    const Configuration cfg = build_full_cross_configuration(t);
    const RunResult trace = run_with_target(t, cfg);
    ASSERT_TRUE(trace.reached_mono(cfg.k));

    const std::uint32_t expected[5][5] = {{0, 0, 0, 0, 0},
                                          {0, 1, 2, 2, 1},
                                          {0, 2, 3, 3, 2},
                                          {0, 2, 3, 3, 2},
                                          {0, 1, 2, 2, 1}};
    for (std::uint32_t i = 0; i < 5; ++i) {
        for (std::uint32_t j = 0; j < 5; ++j) {
            EXPECT_EQ(trace.k_time[t.index(i, j)], expected[i][j]) << i << "," << j;
        }
    }
    EXPECT_EQ(trace.rounds, 3u);
    EXPECT_EQ(trace.rounds, mesh_rounds_paper(5, 5));
}

TEST(Figure5, PerCellTimesMatchTheAdditiveWaveFormula) {
    // Reproduction finding: t(i,j) = min(di, m-di) + min(dj, n-dj) - 1 for
    // the full-cross configuration, every m, n.
    for (std::uint32_t m = 3; m <= 11; m += 2) {
        for (std::uint32_t n = 4; n <= 12; n += 3) {
            Torus t(Topology::ToroidalMesh, m, n);
            const Configuration cfg = build_full_cross_configuration(t);
            const RunResult trace = run_with_target(t, cfg);
            ASSERT_TRUE(trace.reached_mono(cfg.k)) << m << "x" << n;
            for (std::uint32_t i = 0; i < m; ++i) {
                for (std::uint32_t j = 0; j < n; ++j) {
                    EXPECT_EQ(trace.k_time[t.index(i, j)],
                              mesh_cross_cell_time(m, n, 0, 0, i, j))
                        << m << "x" << n << " cell " << i << "," << j;
                }
            }
        }
    }
}

// --- Theorem 7 ----------------------------------------------------------------

TEST(Theorem7, PaperFormulaExactOnSquareMeshes) {
    for (std::uint32_t s = 3; s <= 16; ++s) {
        Torus t(Topology::ToroidalMesh, s, s);
        const Configuration cfg = build_full_cross_configuration(t);
        const RunResult trace = run_with_target(t, cfg);
        ASSERT_TRUE(trace.reached_mono(cfg.k));
        EXPECT_EQ(trace.rounds, mesh_rounds_paper(s, s)) << s;
    }
}

TEST(Theorem7, DerivedSumFormulaExactOnAllMeshes) {
    // Deviation D1 (DESIGN.md): for m != n the measured time is the SUM
    // form ceil((m-1)/2) + ceil((n-1)/2) - 1, not the paper's 2*max form.
    for (std::uint32_t m = 3; m <= 12; ++m) {
        for (std::uint32_t n = 3; n <= 12; ++n) {
            Torus t(Topology::ToroidalMesh, m, n);
            const Configuration cfg = build_full_cross_configuration(t);
            const RunResult trace = run_with_target(t, cfg);
            ASSERT_TRUE(trace.reached_mono(cfg.k)) << m << "x" << n;
            EXPECT_EQ(trace.rounds, mesh_rounds_cross_derived(m, n)) << m << "x" << n;
        }
    }
}

TEST(Theorem7, PaperAndDerivedCoincideExactlyOnSquares) {
    for (std::uint32_t s = 3; s <= 40; ++s) {
        EXPECT_EQ(mesh_rounds_paper(s, s), mesh_rounds_cross_derived(s, s)) << s;
    }
    // ... and differ on sufficiently skewed rectangles.
    EXPECT_NE(mesh_rounds_paper(5, 9), mesh_rounds_cross_derived(5, 9));
}

TEST(Theorem7, MinimalConfigurationIsWithinOneRoundOfTheCrossFormula) {
    // The Theorem-2 (m+n-2) configuration delays two corner waves by one
    // round; measured time is cross or cross+1 everywhere.
    for (std::uint32_t m = 3; m <= 11; ++m) {
        for (std::uint32_t n = 3; n <= 11; ++n) {
            Torus t(Topology::ToroidalMesh, m, n);
            const Configuration cfg = build_theorem2_configuration(t);
            const RunResult trace = run_with_target(t, cfg);
            ASSERT_TRUE(trace.reached_mono(cfg.k)) << m << "x" << n;
            const std::uint32_t cross = mesh_rounds_cross_derived(m, n);
            EXPECT_GE(trace.rounds, cross) << m << "x" << n;
            EXPECT_LE(trace.rounds, cross + 1) << m << "x" << n;
        }
    }
}

TEST(Theorem7, MinimalConfigurationGoldenValues) {
    // Pinned measurements (characterization; see EXPERIMENTS.md).
    const struct {
        std::uint32_t m, n, rounds;
    } golden[] = {{5, 5, 4}, {9, 9, 8}, {4, 4, 3}, {6, 6, 5}, {3, 3, 2}, {12, 12, 11}};
    for (const auto& g : golden) {
        Torus t(Topology::ToroidalMesh, g.m, g.n);
        const Configuration cfg = build_theorem2_configuration(t);
        const RunResult trace = run_with_target(t, cfg);
        EXPECT_EQ(trace.rounds, g.rounds) << g.m << "x" << g.n;
    }
}

// --- Figure 6: the torus-cordalis wave matrix ----------------------------------

TEST(Figure6, ExactRecoloringTimeMatrix) {
    Torus t(Topology::TorusCordalis, 5, 5);
    const Configuration cfg = build_theorem4_configuration(t);
    const RunResult trace = run_with_target(t, cfg);
    ASSERT_TRUE(trace.reached_mono(cfg.k));

    const std::uint32_t expected[5][5] = {{0, 0, 0, 0, 0},
                                          {0, 1, 2, 3, 4},
                                          {5, 6, 7, 8, 7},
                                          {6, 7, 8, 7, 6},
                                          {5, 4, 3, 2, 1}};
    for (std::uint32_t i = 0; i < 5; ++i) {
        for (std::uint32_t j = 0; j < 5; ++j) {
            EXPECT_EQ(trace.k_time[t.index(i, j)], expected[i][j]) << i << "," << j;
        }
    }
    EXPECT_EQ(trace.rounds, 8u);
    EXPECT_EQ(trace.rounds, spiral_rounds_paper(5, 5));
}

// --- Theorem 8 ------------------------------------------------------------------

TEST(Theorem8, PaperFormulaExactForOddRowsOnCordalis) {
    for (std::uint32_t m = 3; m <= 13; m += 2) {
        for (std::uint32_t n = 3; n <= 11; ++n) {
            Torus t(Topology::TorusCordalis, m, n);
            const Configuration cfg = build_theorem4_configuration(t);
            const RunResult trace = run_with_target(t, cfg);
            ASSERT_TRUE(trace.reached_mono(cfg.k)) << m << "x" << n;
            EXPECT_EQ(trace.rounds, spiral_rounds_paper(m, n)) << m << "x" << n;
        }
    }
}

TEST(Theorem8, PaperFormulaExactForOddRowsOnSerpentinus) {
    // Theorem 8 covers the serpentinus for N = n (the row construction).
    for (std::uint32_t m = 5; m <= 13; m += 2) {
        for (std::uint32_t n = 3; n <= m; ++n) {
            Torus t(Topology::TorusSerpentinus, m, n);
            const Configuration cfg = build_theorem4_configuration(t);
            const RunResult trace = run_with_target(t, cfg);
            ASSERT_TRUE(trace.reached_mono(cfg.k)) << m << "x" << n;
            EXPECT_EQ(trace.rounds, spiral_rounds_paper(m, n)) << m << "x" << n;
        }
    }
}

TEST(Theorem8, DerivedFormulaExactForAllRows) {
    // Deviation D3: for even m the paper's branch undercounts by n-1;
    // measured law is (m/2 - 1) * n, encoded in spiral_rounds_derived.
    for (std::uint32_t m = 3; m <= 12; ++m) {
        for (std::uint32_t n = 3; n <= 12; ++n) {
            Torus t(Topology::TorusCordalis, m, n);
            const Configuration cfg = build_theorem4_configuration(t);
            const RunResult trace = run_with_target(t, cfg);
            ASSERT_TRUE(trace.reached_mono(cfg.k)) << m << "x" << n;
            EXPECT_EQ(trace.rounds, spiral_rounds_derived(m, n)) << m << "x" << n;
        }
    }
}

TEST(Theorem8, EvenRowDeviationIsExactlyNMinusOne) {
    for (std::uint32_t m = 4; m <= 12; m += 2) {
        for (std::uint32_t n = 3; n <= 12; ++n) {
            EXPECT_EQ(spiral_rounds_derived(m, n), spiral_rounds_paper(m, n) + n - 1)
                << m << "x" << n;
        }
    }
}

TEST(Theorem8, SerpentinusColumnOrientationGoldenValues) {
    // No paper formula exists for N = m (Theorem 8 is stated for N = n
    // only); these are pinned measurements of our Theorem-6 construction.
    const struct {
        std::uint32_t m, n, rounds;
    } golden[] = {{3, 4, 3},  {3, 5, 4},  {3, 10, 12}, {4, 5, 5},  {4, 9, 13},
                  {5, 6, 9},  {5, 8, 14}, {5, 13, 26}, {6, 7, 13}, {7, 8, 19},
                  {8, 13, 41}};
    for (const auto& g : golden) {
        Torus t(Topology::TorusSerpentinus, g.m, g.n);
        const Configuration cfg = build_theorem6_configuration(t);
        const RunResult trace = run_with_target(t, cfg);
        ASSERT_TRUE(trace.reached_mono(cfg.k)) << g.m << "x" << g.n;
        EXPECT_EQ(trace.rounds, g.rounds) << g.m << "x" << g.n;
    }
}

// --- Size bounds (Theorems 1/3/5 formula sanity) --------------------------------

TEST(SizeBounds, FormulasMatchThePaper) {
    EXPECT_EQ(mesh_size_lower_bound(9, 9), 16u);        // Figure 1: m + n - 2 = 16
    EXPECT_EQ(cordalis_size_lower_bound(7, 4), 5u);     // n + 1
    EXPECT_EQ(serpentinus_size_lower_bound(7, 4), 5u);  // min(m, n) + 1
    EXPECT_EQ(serpentinus_size_lower_bound(4, 7), 5u);
    EXPECT_EQ(size_lower_bound(Topology::ToroidalMesh, 5, 6), 9u);
    EXPECT_EQ(size_lower_bound(Topology::TorusCordalis, 5, 6), 7u);
    EXPECT_EQ(size_lower_bound(Topology::TorusSerpentinus, 5, 6), 6u);
}

TEST(SizeBounds, WavefrontNeverExceedsBoundsOnDynamoRuns) {
    // Sanity link between Theorems 1 and 7: a dynamo of size m+n-2 must
    // recolor |V| - (m+n-2) vertices within the measured rounds, so the
    // mean wavefront is at least that ratio.
    Torus t(Topology::ToroidalMesh, 9, 9);
    const Configuration cfg = build_theorem2_configuration(t);
    const RunResult trace = run_with_target(t, cfg);
    ASSERT_TRUE(trace.reached_mono(cfg.k));
    std::size_t recolored = 0;
    for (std::uint32_t r = 1; r < trace.newly_k.size(); ++r) recolored += trace.newly_k[r];
    EXPECT_EQ(recolored, t.size() - cfg.seeds.size());
}

} // namespace
} // namespace dynamo
