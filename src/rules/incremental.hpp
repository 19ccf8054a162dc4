// dynamo/rules/incremental.hpp
//
// The ordered-color variant the paper points to in its introduction and
// conclusions ("if the set of colors is ordered ... a node recoloring
// itself increases its color by one" - Brunetti, Lodi, Quattrociocchi,
// "Multicolored dynamos on toroidal meshes" [4] and "Stubborn entities in
// colored toroidal meshes" [5]).
//
// Rule: whenever the SMP trigger fires (a unique neighbor color with
// multiplicity >= 2 differing from the vertex's own color), the vertex
// does not jump to the triggering color - it advances its own color by
// one step toward it on the ordered scale {1..|C|}, saturating at the
// endpoints. The "stubborn" entities of [5] additionally require `inertia`
// consecutive triggering rounds before moving.
//
// The decision depends only on the neighborhood (the palette width |C|
// gates input validation, never the update), so the rule doubles as the
// LocalRule `IncrementalStep` and rides the packed stencil sweep; the
// runtime functor IncrementalRule is kept as the reference/oracle form.
// NOT color-symmetric: the rule reads the ORDER of the palette, which
// arbitrary color permutations do not preserve.
//
// This realizes the paper's X2 extension experiment; its dynamics differ
// qualitatively from SMP (gradual fronts, longer convergence), which
// the tab_ext_incremental scenario quantifies - on the packed path since the
// rule-generic engines landed.
#pragma once

#include <array>

#include "core/run/simulate.hpp"
#include "core/smp_rule.hpp"

namespace dynamo::rules {

/// The ordered "+1" protocol as a LocalRule (core/sim/local_rule.hpp).
struct IncrementalStep {
    static constexpr const char* kName = "incremental";
    static constexpr Color kMinColors = 2;
    static constexpr Color kMaxColors = 0;  // any ordered palette
    static constexpr sim::TiePolicy kTie = sim::TiePolicy::PreferCurrent;
    static constexpr bool kIrreversible = false;
    static constexpr bool kColorSymmetric = false;  // order-sensitive

    static constexpr Color next(Color own, Color a, Color b, Color c, Color d) noexcept {
        // SmpRule::next returns `own` exactly when the SMP trigger does not
        // fire (no unique plurality >= 2, or the plurality is own's color);
        // otherwise move one step along the ordered scale toward it.
        const Color target = sim::SmpRule::next(own, a, b, c, d);
        const Color up = static_cast<Color>(own + 1);
        const Color down = static_cast<Color>(own - 1);
        return target == own ? own : (target > own ? up : down);
    }

    /// Word-parallel hook for the bit-plane engine
    /// (core/sim/bitplane_engine.hpp): given 3-bit lanes of the own colors
    /// and of the SMP trigger outcome, advance each lane one step along the
    /// ordered scale toward the target; lanes with target == own keep. The
    /// 3-bit increment/decrement cannot wrap on admissible inputs (target
    /// and own are both in 1..7, and a step fires only TOWARD target).
    static void bitplane_apply(const std::uint64_t own[3], const std::uint64_t target[3],
                               std::uint64_t out[3]) noexcept {
        using W = std::uint64_t;
        const W move = (target[0] ^ own[0]) | (target[1] ^ own[1]) | (target[2] ^ own[2]);
        // 3-bit unsigned compare target > own, most significant plane first.
        const W gt = (target[2] & ~own[2]) |
                     (~(target[2] ^ own[2]) &
                      ((target[1] & ~own[1]) | (~(target[1] ^ own[1]) & (target[0] & ~own[0]))));
        // own + 1 / own - 1 with ripple carries/borrows inside each lane.
        const W inc0 = ~own[0], inc1 = own[1] ^ own[0], inc2 = own[2] ^ (own[1] & own[0]);
        const W dec0 = ~own[0], dec1 = own[1] ^ ~own[0], dec2 = own[2] ^ (~own[1] & ~own[0]);
        const W step0 = (inc0 & gt) | (dec0 & ~gt);
        const W step1 = (inc1 & gt) | (dec1 & ~gt);
        const W step2 = (inc2 & gt) | (dec2 & ~gt);
        out[0] = (step0 & move) | (own[0] & ~move);
        out[1] = (step1 & move) | (own[1] & ~move);
        out[2] = (step2 & move) | (own[2] & ~move);
    }
};

/// Engine rule functor for the ordered "+1" protocol: the runtime
/// reference form (the oracle the LocalRule is tested against).
struct IncrementalRule {
    Color num_colors = 4;

    Color operator()(Color own, const std::array<Color, grid::kDegree>& nbr) const noexcept {
        const SmpDecision d = smp_decide(own, nbr);
        if (d.outcome != SmpOutcome::Adopt || d.color == own) return own;
        // Move one step along the ordered color scale toward the plurality.
        if (d.color > own) return static_cast<Color>(own + 1);
        return static_cast<Color>(own - 1);
    }
};

/// Simulate the incremental rule through the shared run API (core/run/),
/// on the packed fast path.
inline RunResult simulate_incremental(const grid::Torus& torus, const ColorField& initial,
                                      Color num_colors, const RunOptions& options = {}) {
    DYNAMO_REQUIRE(num_colors >= 2, "ordered rule needs at least two colors");
    for (const Color c : initial) {
        DYNAMO_REQUIRE(c >= 1 && c <= num_colors, "color outside the ordered scale");
    }
    return simulate_as<IncrementalStep>(torus, initial, options);
}

} // namespace dynamo::rules
