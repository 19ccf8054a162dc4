// Bi-color majority baselines ([15]; Peleg's Prefer-Black / Prefer-Current):
// rule semantics, absorbing behavior of the irreversible variants, and the
// Proposition 1/2 relationships between the baseline and SMP dynamos.
#include <gtest/gtest.h>

#include "core/builders.hpp"
#include "core/dynamo.hpp"
#include "rules/majority.hpp"

namespace dynamo {
namespace {

using grid::Topology;
using grid::Torus;
using rules::MajorityKind;
using rules::MajorityRule;
using sim::TiePolicy;

TEST(MajorityRule, SimplePreferBlackTieGoesBlack) {
    const MajorityRule rule{MajorityKind::Simple, TiePolicy::PreferBlack, false};
    EXPECT_EQ(rule(kWhite, {kBlack, kBlack, kWhite, kWhite}), kBlack);
    EXPECT_EQ(rule(kBlack, {kBlack, kBlack, kWhite, kWhite}), kBlack);
}

TEST(MajorityRule, SimplePreferCurrentTieKeeps) {
    const MajorityRule rule{MajorityKind::Simple, TiePolicy::PreferCurrent, false};
    EXPECT_EQ(rule(kWhite, {kBlack, kBlack, kWhite, kWhite}), kWhite);
    EXPECT_EQ(rule(kBlack, {kBlack, kBlack, kWhite, kWhite}), kBlack);
}

TEST(MajorityRule, SimpleMajorityFollowsThreeOfFour) {
    const MajorityRule rule{MajorityKind::Simple, TiePolicy::PreferBlack, false};
    EXPECT_EQ(rule(kWhite, {kBlack, kBlack, kBlack, kWhite}), kBlack);
    EXPECT_EQ(rule(kBlack, {kWhite, kWhite, kWhite, kBlack}), kWhite);
}

TEST(MajorityRule, StrongMajorityNeedsThree) {
    const MajorityRule rule{MajorityKind::Strong, TiePolicy::PreferBlack, false};
    EXPECT_EQ(rule(kWhite, {kBlack, kBlack, kWhite, kWhite}), kWhite);  // only 2
    EXPECT_EQ(rule(kWhite, {kBlack, kBlack, kBlack, kWhite}), kBlack);
    EXPECT_EQ(rule(kBlack, {kWhite, kWhite, kWhite, kBlack}), kWhite);
}

TEST(MajorityRule, IrreversibleBlackIsAbsorbing) {
    const MajorityRule rule = rules::reverse_simple_majority();
    EXPECT_EQ(rule(kBlack, {kWhite, kWhite, kWhite, kWhite}), kBlack);
    EXPECT_EQ(rule(kWhite, {kBlack, kBlack, kWhite, kWhite}), kBlack);
}

TEST(MajorityRule, RequiresBicoloredField) {
    Torus t(Topology::ToroidalMesh, 4, 4);
    ColorField f(t.size(), 3);
    EXPECT_THROW(rules::simulate_majority(t, f, rules::reverse_simple_majority()),
                 std::invalid_argument);
}

TEST(MajorityBaseline, IrreversibleRunsAreMonotone) {
    // The "reverse" semantics of [15]: the black set only grows.
    Torus t(Topology::ToroidalMesh, 8, 8);
    ColorField f(t.size(), kWhite);
    for (const grid::VertexId v : full_cross_seeds(t)) f[v] = kBlack;
    RunOptions opts;
    opts.target = kBlack;
    const RunResult trace =
        rules::simulate_majority(t, f, rules::reverse_simple_majority(), opts);
    EXPECT_TRUE(trace.monotone);
    EXPECT_TRUE(trace.reached_mono(kBlack));
}

TEST(MajorityBaseline, FullCrossIsADynamoUnderReverseSimpleMajority) {
    // Under simple majority with PB ties the cross floods the mesh fast
    // (each corner quadrant fills diagonally, 2 black neighbors suffice).
    for (std::uint32_t s = 4; s <= 10; ++s) {
        Torus t(Topology::ToroidalMesh, s, s);
        ColorField f(t.size(), kWhite);
        for (const grid::VertexId v : full_cross_seeds(t)) f[v] = kBlack;
        const RunResult trace = rules::simulate_majority(t, f, rules::reverse_simple_majority());
        EXPECT_TRUE(trace.reached_mono(kBlack)) << s;
    }
}

TEST(MajorityBaseline, StrongMajorityNeedsMoreThanTheCross) {
    // Proposition 2 direction: the reverse *strong* majority rule is more
    // demanding - the bare cross does not flood it.
    Torus t(Topology::ToroidalMesh, 8, 8);
    ColorField f(t.size(), kWhite);
    for (const grid::VertexId v : full_cross_seeds(t)) f[v] = kBlack;
    const RunResult trace = rules::simulate_majority(t, f, rules::reverse_strong_majority());
    EXPECT_FALSE(trace.reached_mono(kBlack));
}

TEST(MajorityBaseline, Proposition1CollapseOfSmpDynamoFloodsUnderSimpleMajority) {
    // phi maps an SMP dynamo's seed set to a black set; under the (weaker
    // per Prop. 1 reasoning) reverse simple majority it floods too.
    for (const Topology topo : {Topology::ToroidalMesh, Topology::TorusCordalis}) {
        Torus t(topo, 7, 7);
        const Configuration cfg = build_minimum_dynamo(t);
        ColorField bi = phi_collapse(cfg.field, cfg.k);
        const RunResult trace = rules::simulate_majority(t, bi, rules::reverse_simple_majority());
        EXPECT_TRUE(trace.reached_mono(kBlack)) << to_string(topo);
    }
}

TEST(MajorityBaseline, PreferCurrentCheckerboardIsStable) {
    // Under Prefer-Current, the checkerboard's 2-2 ties freeze: a fixed
    // point rather than [15]'s PB flood.
    Torus t(Topology::ToroidalMesh, 4, 4);
    ColorField f(t.size());
    for (grid::VertexId v = 0; v < t.size(); ++v) {
        const auto c = t.coord(v);
        f[v] = ((c.i + c.j) % 2 == 0) ? kBlack : kWhite;
    }
    // Every vertex sees 4 of the opposite color -> unanimous flip under PC
    // as well (no tie); use the column-stripe stall instead.
    for (grid::VertexId v = 0; v < t.size(); ++v) f[v] = (t.coord(v).j % 2) ? kBlack : kWhite;
    const RunResult trace = rules::simulate_majority(
        t, f, rules::simple_majority_prefer_current());
    EXPECT_EQ(trace.termination, Termination::FixedPoint);
    EXPECT_EQ(trace.total_recolorings, 0u);
}

TEST(MajorityBaseline, PreferBlackBreaksTheStripeStall) {
    // The same stripes flood under Prefer-Black: the tie policy alone
    // separates the two baselines (the distinction the paper draws in
    // Section I).
    Torus t(Topology::ToroidalMesh, 4, 4);
    ColorField f(t.size());
    for (grid::VertexId v = 0; v < t.size(); ++v) f[v] = (t.coord(v).j % 2) ? kBlack : kWhite;
    const MajorityRule pb{MajorityKind::Simple, TiePolicy::PreferBlack, false};
    const RunResult trace = rules::simulate_majority(t, f, pb);
    EXPECT_TRUE(trace.reached_mono(kBlack));
    EXPECT_EQ(trace.rounds, 1u);
}

} // namespace
} // namespace dynamo
