// dynamo/core/sim/kernels.hpp
//
// Branchless cell kernels for the packed-state sweep (core/sim/sweep.hpp),
// templated over the LocalRule concept (core/sim/local_rule.hpp). This
// header owns the SMP instantiation; the other family members (bi-color
// majorities, thresholds, the ordered "+1" rule) live in rules/ next to
// their reference functors.
//
// The SMP rule (core/smp_rule.hpp) is re-derived here in a select-only
// form that a vectorizer can lift to SIMD over a row of 8-bit colors.
// With the four neighbor slots {a, b, c, d}, let cnt(s) be the number of
// slots sharing slot s's color and e(s) = cnt(s) - 1 the "excess". The
// slot-excess sum S = e(a)+e(b)+e(c)+e(d) identifies the neighborhood
// multiset uniquely:
//
//   multiset      S    max e    action
//   (4)          12      3      adopt
//   (3,1)         6      2      adopt
//   (2,2)         4      1      keep  (the paper's resolved tie)
//   (2,1,1)       2      1      adopt the pair
//   (1,1,1,1)     0      0      keep
//
// so "adopt the unique plurality of multiplicity >= 2" becomes the pair of
// comparisons  max_e >= 1 && S != 4  with the adopted color being any slot
// attaining max_e (unique whenever we adopt). Exhaustively equivalent to
// smp_decide() - tests/test_sim_packed.cpp checks all 5^5 neighborhoods.
//
// Layout contract used by the row kernels: colors are row-major, one byte
// per vertex, and for every topology the interior columns 1..n-2 of a row
// have Left = j-1 and Right = j+1 (the cordalis/serpentinus rewirings only
// touch columns 0 and n-1), so an interior sweep needs just three source
// row pointers (up / own / down) and no neighbor table at all.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/coloring.hpp"
#include "core/sim/local_rule.hpp"
#include "grid/torus.hpp"

namespace dynamo::sim {

/// The SMP-Protocol (paper Algorithm 1) as a LocalRule: adopt the unique
/// neighbor plurality of multiplicity >= 2, else keep. Semantically
/// identical to smp_update() (core/smp_rule.hpp); written with selects so
/// the row sweep below auto-vectorizes.
struct SmpRule {
    static constexpr const char* kName = "smp";
    static constexpr Color kMinColors = 2;
    static constexpr Color kMaxColors = 0;  // any palette
    static constexpr TiePolicy kTie = TiePolicy::PreferCurrent;
    static constexpr bool kIrreversible = false;
    static constexpr bool kColorSymmetric = true;

    static constexpr Color next(Color own, Color a, Color b, Color c, Color d) noexcept {
        const std::uint8_t e01 = a == b, e02 = a == c, e03 = a == d;
        const std::uint8_t e12 = b == c, e13 = b == d, e23 = c == d;
        const std::uint8_t ea = static_cast<std::uint8_t>(e01 + e02 + e03);
        const std::uint8_t eb = static_cast<std::uint8_t>(e01 + e12 + e13);
        const std::uint8_t ec = static_cast<std::uint8_t>(e02 + e12 + e23);
        const std::uint8_t ed = static_cast<std::uint8_t>(e03 + e13 + e23);
        const std::uint8_t sum = static_cast<std::uint8_t>(ea + eb + ec + ed);

        Color cand = a;
        std::uint8_t best = ea;
        cand = eb > best ? b : cand;
        best = eb > best ? eb : best;
        cand = ec > best ? c : cand;
        best = ec > best ? ec : best;
        cand = ed > best ? d : cand;
        best = ed > best ? ed : best;

        const bool adopt = (best >= 1) & (sum != 4);
        return adopt ? cand : own;
    }

    /// Word-parallel hook for the bit-plane engine
    /// (core/sim/bitplane_engine.hpp): `target` holds, per 3-bit lane, the
    /// SMP trigger outcome next(own, ...) already computed by the shared
    /// pair-counting kernel; the SMP rule adopts it verbatim. Multi-color
    /// rules of the form g(own, smp_target) ride the same kernel by
    /// providing their own bitplane_apply (rules/incremental.hpp).
    static void bitplane_apply(const std::uint64_t own[3], const std::uint64_t target[3],
                               std::uint64_t out[3]) noexcept {
        (void)own;
        out[0] = target[0];
        out[1] = target[1];
        out[2] = target[2];
    }
};

/// Stencil sweep of one row restricted to interior columns [jlo, jhi),
/// 1 <= jlo <= jhi <= n-1. `up` / `row` / `down` point at the start of the
/// three source rows, `out` at the start of the destination row. Returns
/// the number of cells that changed color. The single hot loop of the
/// packed engines: unit-stride 8-bit loads, no table, no branches.
template <LocalRule R>
inline std::size_t sweep_row_interior(const Color* up, const Color* row, const Color* down,
                                      Color* out, std::size_t jlo, std::size_t jhi) noexcept {
    std::size_t changed = 0;
    for (std::size_t j = jlo; j < jhi; ++j) {
        const Color next = R::next(row[j], up[j], down[j], row[j - 1], row[j + 1]);
        out[j] = next;
        changed += next != row[j];
    }
    return changed;
}

/// Fallback cell kernel for boundary cells (columns 0 / n-1 everywhere,
/// plus the serpentine-wrapped rows 0 / m-1): gather the 4 slots from the
/// torus's precomputed flat neighbor table.
template <LocalRule R>
inline std::size_t sweep_cell_table(const Color* src, Color* dst, const grid::VertexId* table,
                                    std::size_t v) noexcept {
    const grid::VertexId* nb = table + v * grid::kDegree;
    const Color next = R::next(src[v], src[nb[0]], src[nb[1]], src[nb[2]], src[nb[3]]);
    dst[v] = next;
    return next != src[v];
}

} // namespace dynamo::sim
