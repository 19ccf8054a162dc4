// Exhaustive lower-bound verification (Theorems 1/3/5, Proposition 3) on
// tiny tori, plus the backtracking condition solver.
#include <gtest/gtest.h>

#include "core/bounds.hpp"
#include "core/builders.hpp"
#include "core/conditions.hpp"
#include "core/dynamo.hpp"
#include "core/search/enumerate.hpp"
#include "core/search/types.hpp"
#include "core/solver.hpp"
#include "core/transform.hpp"

namespace dynamo {
namespace {

using grid::Topology;
using grid::Torus;

// --- exhaustive searches (kept tiny: these enumerate full colorings) ----------

TEST(ExhaustiveSearch, ThreeByThreeMeshBeatsTheTheorem1Bound) {
    // REPRODUCTION FINDING (deviation D5, EXPERIMENTS.md): Theorem 1 claims
    // |S_k| >= m + n - 2 = 4 for monotone dynamos, but on the degenerate
    // 3x3 mesh an exhaustive search finds a monotone dynamo of size 3 with
    // |C| = 3. Size-3 tori wrap every row/column into a triangle, so two
    // seeds can share two common neighbors and 2+2 ties protect non-block
    // seeds - the "union of k-blocks" necessity (Lemma 2) fails.
    Torus t(Topology::ToroidalMesh, 3, 3);
    SearchOptions opts;
    opts.total_colors = 3;
    opts.require_monotone = true;
    const SearchOutcome outcome = exhaustive_min_dynamo(t, 3, opts);
    EXPECT_TRUE(outcome.complete);
    ASSERT_EQ(outcome.min_size, 3u);  // below the paper's bound of 4
    // The witness is real: re-verify, and exhibit the Lemma-2 failure.
    const DynamoVerdict verdict = verify_dynamo(t, outcome.witness_field, 1);
    EXPECT_TRUE(verdict.is_monotone);
    EXPECT_FALSE(is_union_of_k_blocks(t, outcome.witness_field, 1));
}

TEST(ExhaustiveSearch, ThreeByThreeMeshWithFourColorsAdmitsSizeTwo) {
    // Same finding, stronger with a 4-color palette: two diagonal seeds
    // suffice (each fresh color adds tie-protection options).
    Torus t(Topology::ToroidalMesh, 3, 3);
    SearchOptions opts;
    opts.total_colors = 4;
    const SearchOutcome outcome = exhaustive_min_dynamo(t, 3, opts);
    EXPECT_TRUE(outcome.complete);
    ASSERT_EQ(outcome.min_size, 2u);
    const DynamoVerdict verdict = verify_dynamo(t, outcome.witness_field, 1);
    EXPECT_TRUE(verdict.is_monotone);
    EXPECT_FALSE(is_union_of_k_blocks(t, outcome.witness_field, 1));
}

TEST(ExhaustiveSearch, BiColorHasNoSmallMonotoneDynamoOn3x3) {
    // Proposition 3 / Remark 1 flavor: with |C| = 2 the complement of the
    // seeds is monochromatic; sizes up to 4 are still not enough under the
    // SMP rule (a bi-colored 3x3 needs more than m+n-2 seeds).
    Torus t(Topology::ToroidalMesh, 3, 3);
    SearchOptions opts;
    opts.total_colors = 2;
    const SearchOutcome outcome = exhaustive_min_dynamo(t, 4, opts);
    EXPECT_TRUE(outcome.complete);
    EXPECT_EQ(outcome.min_size, SearchOutcome::kNoDynamo);
}

TEST(ExhaustiveSearch, ThreeByThreeCordalisAlsoBeatsItsBound) {
    // Theorem 3 claims |S_k| >= n + 1 = 4; the 3x3 cordalis admits a
    // monotone dynamo of size 2 (deviation D5 again - the spiral plus the
    // triangle columns give two seeds overlapping neighborhoods).
    Torus t(Topology::TorusCordalis, 3, 3);
    SearchOptions opts;
    opts.total_colors = 3;
    const SearchOutcome outcome = exhaustive_min_dynamo(t, 3, opts);
    EXPECT_TRUE(outcome.complete);
    ASSERT_EQ(outcome.min_size, 2u);
    const DynamoVerdict verdict = verify_dynamo(t, outcome.witness_field, 1);
    EXPECT_TRUE(verdict.is_monotone);
    EXPECT_FALSE(is_union_of_k_blocks(t, outcome.witness_field, 1));
}

TEST(ExhaustiveSearch, BudgetTruncationIsReported) {
    Torus t(Topology::ToroidalMesh, 3, 4);
    SearchOptions opts;
    opts.total_colors = 3;
    opts.max_sims = 10;  // absurdly small on purpose
    const SearchOutcome outcome = exhaustive_min_dynamo(t, 4, opts);
    EXPECT_FALSE(outcome.complete);
    EXPECT_EQ(outcome.sims, 11u);  // stopped right after exceeding
}

TEST(ExhaustiveSearch, SeedProbeFindsColoringsForTheorem2Seeds) {
    // For the Theorem-2 seed set on a 3x3 mesh, SOME complement coloring
    // over 4 colors is a monotone dynamo.
    Torus t(Topology::ToroidalMesh, 3, 3);
    SearchOptions opts;
    opts.total_colors = 4;
    const SeedProbe probe = seed_set_admits_dynamo(t, theorem2_seeds(t), opts);
    EXPECT_TRUE(probe.complete);
    EXPECT_TRUE(probe.found);
    const DynamoVerdict verdict = verify_dynamo(t, probe.witness_field, 1);
    EXPECT_TRUE(verdict.is_monotone);
}

TEST(ExhaustiveSearch, SeedProbeBoundaryOnTinyTorus) {
    Torus t(Topology::ToroidalMesh, 3, 3);
    SearchOptions opts;
    opts.total_colors = 4;
    // The diagonal pair is completable (it is the D5 witness family)...
    const SeedProbe pair =
        seed_set_admits_dynamo(t, {t.index(0, 0), t.index(1, 1)}, opts);
    EXPECT_TRUE(pair.complete);
    EXPECT_TRUE(pair.found);
    // ...but a single seed is not: k can never reach plurality 2 anywhere
    // at round 1 without a second k, and ties keep colors.
    const SeedProbe single = seed_set_admits_dynamo(t, {t.index(0, 0)}, opts);
    EXPECT_TRUE(single.complete);
    EXPECT_FALSE(single.found);
}

TEST(ExhaustiveSearch, PrunesDoNotChangeTheOutcome) {
    // Lemma-1 box prune and non-k-block prune are sound: same verdict with
    // and without them on a small instance.
    Torus t(Topology::ToroidalMesh, 3, 3);
    SearchOptions plain;
    plain.total_colors = 3;
    SearchOptions pruned = plain;
    pruned.use_box_prune = true;
    pruned.use_block_prune = true;
    const SearchOutcome a = exhaustive_min_dynamo(t, 3, plain);
    const SearchOutcome b = exhaustive_min_dynamo(t, 3, pruned);
    EXPECT_EQ(a.min_size, b.min_size);
    EXPECT_TRUE(b.complete);
    EXPECT_LE(b.sims, a.sims);  // prunes only ever skip work
}

// --- phi transformation (Propositions 1/2 infrastructure) ---------------------

TEST(PhiTransform, CollapsesToTwoColors) {
    ColorField f{1, 2, 3, 4, 2, 1};
    const ColorField bi = phi_collapse(f, 2);
    EXPECT_TRUE(is_bicolored(bi));
    for (std::size_t v = 0; v < f.size(); ++v) {
        EXPECT_EQ(bi[v], f[v] == 2 ? kBlack : kWhite);
    }
}

TEST(PhiTransform, PreservesTheSeedCount) {
    Torus t(Topology::ToroidalMesh, 6, 6);
    const Configuration cfg = build_theorem2_configuration(t);
    const ColorField bi = phi_collapse(cfg.field, cfg.k);
    EXPECT_EQ(count_color(bi, kBlack), cfg.seeds.size());
}

TEST(PhiTransform, NonKBlocksMapToWhiteBlocks) {
    // The correspondence behind Proposition 1: a non-k-block in the
    // multicolored torus is a white "3-core" block after collapsing.
    Torus t(Topology::ToroidalMesh, 6, 6);
    ColorField f(t.size(), 1);
    for (std::uint32_t j = 0; j < 6; ++j) {
        f[t.index(2, j)] = 2;
        f[t.index(3, j)] = 3;
    }
    ASSERT_TRUE(has_non_k_block(t, f, 1));
    const ColorField bi = phi_collapse(f, 1);
    EXPECT_TRUE(has_non_k_block(t, bi, kBlack));  // white 3-core persists
}

// --- condition solver -----------------------------------------------------------

TEST(Solver, FindsValidColoringsForTheorem2Seeds) {
    for (std::uint32_t s = 4; s <= 7; ++s) {
        Torus t(Topology::ToroidalMesh, s, s);
        ColorField partial(t.size(), kUnset);
        for (const grid::VertexId v : theorem2_seeds(t)) partial[v] = 1;
        SolverOptions opts;
        opts.total_colors = 5;
        const SolverResult result = solve_condition_coloring(t, partial, 1, opts);
        ASSERT_TRUE(result.found()) << s;
        EXPECT_TRUE(check_theorem_conditions(t, result.field, 1).ok()) << s;
    }
}

TEST(Solver, SolutionsAreMonotoneDynamos) {
    Torus t(Topology::ToroidalMesh, 6, 6);
    ColorField partial(t.size(), kUnset);
    for (const grid::VertexId v : theorem2_seeds(t)) partial[v] = 1;
    SolverOptions opts;
    opts.total_colors = 5;
    const SolverResult result = solve_condition_coloring(t, partial, 1, opts);
    ASSERT_TRUE(result.found());
    const DynamoVerdict verdict = verify_dynamo(t, result.field, 1);
    EXPECT_TRUE(verdict.is_dynamo) << verdict.summary();
}

TEST(Solver, TwoTotalColorsAreUnsatisfiable) {
    // With |C| = 2 the complement of the cross is monochromatic and
    // contains cycles -> the forest condition is violated everywhere.
    Torus t(Topology::ToroidalMesh, 5, 5);
    ColorField partial(t.size(), kUnset);
    for (const grid::VertexId v : theorem2_seeds(t)) partial[v] = 1;
    SolverOptions opts;
    opts.total_colors = 2;
    const SolverResult result = solve_condition_coloring(t, partial, 1, opts);
    EXPECT_EQ(result.status, SolverStatus::Unsat);
}

TEST(Solver, ThreeTotalColorsAreUnsatisfiableOnTheMesh) {
    // Theorem 2 requires |C| >= 4; the solver proves 3 is not enough for
    // the minimum cross on a 5x5 mesh.
    Torus t(Topology::ToroidalMesh, 5, 5);
    ColorField partial(t.size(), kUnset);
    for (const grid::VertexId v : theorem2_seeds(t)) partial[v] = 1;
    SolverOptions opts;
    opts.total_colors = 3;
    const SolverResult result = solve_condition_coloring(t, partial, 1, opts);
    EXPECT_EQ(result.status, SolverStatus::Unsat);
}

TEST(Solver, BudgetExhaustionIsReported) {
    Torus t(Topology::ToroidalMesh, 8, 8);
    ColorField partial(t.size(), kUnset);
    for (const grid::VertexId v : theorem2_seeds(t)) partial[v] = 1;
    SolverOptions opts;
    opts.total_colors = 4;
    opts.max_nodes = 5;
    const SolverResult result = solve_condition_coloring(t, partial, 1, opts);
    EXPECT_EQ(result.status, SolverStatus::BudgetOut);
}

TEST(Solver, RandomizedValueOrderStillValid) {
    Torus t(Topology::ToroidalMesh, 6, 6);
    ColorField partial(t.size(), kUnset);
    for (const grid::VertexId v : theorem2_seeds(t)) partial[v] = 1;
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        SolverOptions opts;
        opts.total_colors = 5;
        opts.rng_seed = seed;
        const SolverResult result = solve_condition_coloring(t, partial, 1, opts);
        ASSERT_TRUE(result.found()) << seed;
        EXPECT_TRUE(check_theorem_conditions(t, result.field, 1).ok()) << seed;
    }
}

} // namespace
} // namespace dynamo
