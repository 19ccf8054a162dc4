// dynamo/core/sim/lane_engine.hpp
//
// The lane engine: the bit-plane word kernels (core/sim/bitplane_engine.hpp)
// turned on their side. BitplaneEngineT packs 64 CELLS of one run into a
// limb, which pays off at 1024^2 but not on the 8^2-12^2 tori the
// Monte-Carlo atlas runs on, where a whole row is 12 bits wide. Here bit t
// of every cell's word belongs to RUN t: one BitplaneKernel<R>::next_words
// call advances one cell in up to 64 independent runs, and the neighbors
// are read through the torus neighbor table, so every topology and every
// wrap cell takes the same path.
//
// Each lane is classified exactly as run_to_terminal() classifies its run
// under default RunOptions (core/run/runner.hpp):
//
//   * initially monochromatic          -> Monochromatic after 0 rounds;
//   * no cell of the lane changed in round r -> FixedPoint after r - 1;
//   * every cell agrees after round r (each plane's AND over the cells
//     equals its OR)                   -> Monochromatic after r;
//   * the state after round r equals the state after round r - 2
//                                      -> Cycle after r.
//
// The last test is exact for period-2 cycles: the first repeated state of
// a run lies on its cycle, so when the minimal period is 2 the test fires
// on the round CycleDetector does, and it never fires on a longer cycle.
// A lane still live after lane_round_budget() rounds - a cycle of period
// >= 3, or a transient longer than the budget - is handed back to the
// caller, which re-runs it from its initial field on a scalar engine. The
// budget stays below the run driver's automatic round cap, so RoundLimit
// needs no lane form. Classified lanes are frozen (their bits stop
// changing), so every lane's terminal state is still in the buffer when
// the batch ends.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/coloring.hpp"
#include "core/run/result.hpp"
#include "core/sim/bitplane_engine.hpp"
#include "core/transform.hpp"
#include "grid/torus.hpp"

namespace dynamo::sim {

/// Runs per lane batch: bit t of every cell word belongs to run t.
inline constexpr std::size_t kLanes = kWordBits;

/// Largest palette the lane planes hold: three planes encode colors 1..7
/// (bi-color rules use one plane over {kWhite, kBlack}).
inline constexpr Color kLaneMaxColors = 7;

/// Rounds the lane engine steps before it hands the lanes still live back
/// to the caller. Always below the automatic round cap 4|V| + 64, because
/// 2(m + n) <= 4mn for m, n >= 1.
inline std::uint32_t lane_round_budget(const grid::Torus& torus) noexcept {
    return 2 * (torus.rows() + torus.cols()) + 32;
}

/// Runs `lanes` (1..kLanes) independent runs of R on `torus` from the
/// lane-major fields `initial`: lane t's field is initial[t*|V|, (t+1)*|V|),
/// colored over {kWhite, kBlack} for bi-color rules and over
/// 1..kLaneMaxColors otherwise. Writes out[t] for every lane it classifies,
/// with final_k counting color k, and returns the mask of the lanes still
/// live after lane_round_budget(torus) rounds; their out[t] is untouched.
template <LocalRule R>
Word run_lanes(const grid::Torus& torus, const Color* initial, std::size_t lanes, Color k,
               RunSummary* out) {
    static_assert(kBitplaneSupported<R>, "rule has no word-parallel bit-plane kernel");
    constexpr std::size_t P = kBitplanePlanes<R>;
    DYNAMO_REQUIRE(lanes >= 1 && lanes <= kLanes, "a lane batch holds 1..64 runs");
    DYNAMO_REQUIRE(P == 1 ? (k == kWhite || k == kBlack) : (k >= 1 && k <= kLaneMaxColors),
                   "target color outside the lane planes");
    const std::size_t size = torus.size();
    const Word used = lanes == kLanes ? ~Word{0} : (Word{1} << lanes) - 1;

    // Current and next state, P words per cell, cell-major so the planes
    // of one cell share a cache line.
    std::vector<Word> buffers(2 * P * size, 0);
    Word* cur = buffers.data();
    Word* next = cur + P * size;
    for (std::size_t v = 0; v < size; ++v) {
        Word planes[P] = {};
        for (std::size_t t = 0; t < lanes; ++t) {
            const Color c = initial[t * size + v];
            DYNAMO_ASSERT(P == 1 ? (c == kWhite || c == kBlack) : (c >= 1 && c <= kLaneMaxColors),
                          "color outside the lane planes");
            if constexpr (P == 1) {
                planes[0] |= Word{c == kBlack} << t;
            } else {
                for (std::size_t p = 0; p < P; ++p) planes[p] |= Word{(c >> p) & 1u} << t;
            }
        }
        for (std::size_t p = 0; p < P; ++p) cur[v * P + p] = planes[p];
    }

    std::array<Termination, kLanes> ends{};
    std::array<std::uint32_t, kLanes> rounds{};
    const auto retire = [&](Word mask, Termination end, std::uint32_t r) {
        for (; mask != 0; mask &= mask - 1) {
            const auto t = static_cast<std::size_t>(std::countr_zero(mask));
            ends[t] = end;
            rounds[t] = r;
        }
    };

    // Lanes whose cells do not all agree: some plane's AND over the cells
    // differs from its OR.
    struct Agreement {
        Word all[P], any[P];
        Agreement() {
            for (std::size_t p = 0; p < P; ++p) all[p] = ~Word{0}, any[p] = 0;
        }
        void add(std::size_t p, Word w) noexcept {
            all[p] &= w;
            any[p] |= w;
        }
        Word varying() const noexcept {
            Word varies = 0;
            for (std::size_t p = 0; p < P; ++p) varies |= all[p] ^ any[p];
            return varies;
        }
    };

    Agreement initial_agreement;
    for (std::size_t v = 0; v < size; ++v) {
        for (std::size_t p = 0; p < P; ++p) initial_agreement.add(p, cur[v * P + p]);
    }
    Word live = used & initial_agreement.varying();
    retire(used & ~live, Termination::Monochromatic, 0);

    const grid::VertexId* table = torus.table_data();
    const std::uint32_t budget = lane_round_budget(torus);
    for (std::uint32_t r = 1; live != 0 && r <= budget; ++r) {
        Word changed = 0;  // lanes whose state differs from round r - 1
        Word since2 = 0;   // ... from round r - 2, which `next` still holds
        Agreement agreement;
        for (std::size_t v = 0; v < size; ++v) {
            const grid::VertexId* nb = table + v * grid::kDegree;
            Word own[P], up[P], down[P], left[P], right[P], stepped[P];
            for (std::size_t p = 0; p < P; ++p) {
                own[p] = cur[v * P + p];
                up[p] = cur[nb[0] * P + p];
                down[p] = cur[nb[1] * P + p];
                left[p] = cur[nb[2] * P + p];
                right[p] = cur[nb[3] * P + p];
            }
            BitplaneKernel<R>::next_words(own, up, down, left, right, stepped);
            for (std::size_t p = 0; p < P; ++p) {
                const Word w = (stepped[p] & live) | (own[p] & ~live);
                changed |= w ^ own[p];
                since2 |= w ^ next[v * P + p];
                next[v * P + p] = w;
                agreement.add(p, w);
            }
        }
        std::swap(cur, next);
        const Word fixed = live & ~changed;
        live &= changed;
        const Word varies = agreement.varying();
        const Word mono = live & ~varies;
        const Word cycle = r >= 2 ? live & varies & ~since2 : 0;
        retire(fixed, Termination::FixedPoint, r - 1);
        retire(mono, Termination::Monochromatic, r);
        retire(cycle, Termination::Cycle, r);
        live &= ~(mono | cycle);
    }

    // Every classified lane's terminal state is frozen in `cur`.
    std::array<std::size_t, kLanes> k_count{};
    const Word done = used & ~live;
    for (std::size_t v = 0; v < size; ++v) {
        Word match = done;
        for (std::size_t p = 0; p < P; ++p) {
            const bool bit = P == 1 ? k == kBlack : ((k >> p) & 1u) != 0;
            match &= bit ? cur[v * P + p] : ~cur[v * P + p];
        }
        for (; match != 0; match &= match - 1) ++k_count[std::countr_zero(match)];
    }
    for (Word mask = done; mask != 0; mask &= mask - 1) {
        const auto t = static_cast<std::size_t>(std::countr_zero(mask));
        RunSummary& summary = out[t];
        summary.termination = ends[t];
        summary.rounds = rounds[t];
        summary.mono.reset();
        if (ends[t] == Termination::Monochromatic) {
            Color c = 0;
            for (std::size_t p = 0; p < P; ++p) c |= static_cast<Color>(((cur[p] >> t) & 1u) << p);
            summary.mono = P == 1 ? (c != 0 ? kBlack : kWhite) : c;
        }
        summary.final_k = k_count[t];
    }
    return live;
}

} // namespace dynamo::sim
