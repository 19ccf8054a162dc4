// dynamo/core/run/runner.hpp
//
// The one run driver. Every simulation in the library - SMP on the three
// tori (packed full sweep or active-set fast path), arbitrary local rules,
// plurality on general graphs, temporal links - is an Engine stepped by
// run_to_terminal(), which owns the terminal-round semantics the seed code
// re-implemented in six places:
//
//   * rounds = number of rounds until the terminal condition FIRST held:
//     a run that quiesces on round r (zero changes) reports r-1, because
//     the state was already terminal before the no-op round; a run that
//     becomes monochromatic or repeats a state on round r reports r.
//   * an initially monochromatic field reports 0 rounds without stepping.
//   * the defensive cap (max_rounds, default 4*|V| + 64, far above every
//     bound the paper proves) reports the cap itself.
//
// Per-round cost on top of the engine step is O(changed): the runner keeps
// an incremental color census for monochromatic detection (no O(|V|) scan
// per round) and observers fold the changed-cell list (no per-round field
// copies; the seed driver's target tracking copied the whole ColorField
// every round).
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/coloring.hpp"
#include "core/run/backend.hpp"
#include "core/run/observer.hpp"
#include "core/run/result.hpp"
#include "util/parallel.hpp"

namespace dynamo {

struct RunOptions {
    /// Hard cap on rounds; 0 selects an automatic cap of 4*|V| + 64 (far
    /// above every bound the paper proves, see Theorems 7-8).
    std::uint32_t max_rounds = 0;

    /// When set, the result records per-vertex adoption times of this
    /// color, the per-round wavefront sizes, and monotonicity
    /// (Definition 3) via an automatically attached AdoptionTracker.
    std::optional<Color> target;

    /// Detect repeated states (limit cycles) via an automatically attached
    /// CycleDetector.
    bool detect_cycles = true;

    /// Optional worker pool for engines whose step accepts one; nullptr =
    /// serial.
    ThreadPool* pool = nullptr;

    /// Minimum vertices per parallel block (avoids threading toy grids).
    std::size_t parallel_grain = 1 << 14;

    /// Backend selector for simulate()/simulate_rule() (ignored when a
    /// caller drives run_to_terminal with an explicit engine).
    Backend backend = Backend::Auto;

    /// When false, a zero-change round is NOT terminal: time-varying rules
    /// (graph/temporal.hpp) may recolor again once links return, so only
    /// monochromatic states, observer stops, and the cap end the run.
    bool stop_on_quiescence = true;

    /// Additional observers, notified in order after the automatic ones
    /// (AdoptionTracker, CycleDetector). Non-owning.
    std::vector<Observer*> observers;
};

/// Anything run_to_terminal can drive: one synchronous round per step()
/// returning the number of changed vertices, plus state access.
template <typename E>
concept Engine = requires(E& e, const E& ce) {
    { e.step() } -> std::convertible_to<std::size_t>;
    { ce.colors() } -> std::convertible_to<const ColorField&>;
    { ce.round() } -> std::convertible_to<std::uint32_t>;
};

/// Engines that report the exact cells they changed (all in-tree engines
/// do); foreign engines fall back to a per-round diff against a kept copy.
template <typename E>
concept ChangeReportingEngine =
    Engine<E> && requires(E& e, std::vector<CellChange>& out) {
        { e.step_collect(out) } -> std::convertible_to<std::size_t>;
    };

inline constexpr std::uint32_t auto_round_cap(std::size_t num_vertices) noexcept {
    return static_cast<std::uint32_t>(4 * num_vertices + 64);
}

namespace run_detail {

/// One engine round, with the changed cells appended to `out`. Prefers the
/// pool-aware collecting overload, then the plain collecting one, then a
/// diff against `prev` (kept across rounds) for foreign engines.
template <Engine E>
std::size_t step_engine(E& engine, const RunOptions& options, std::vector<CellChange>& out,
                        ColorField& prev) {
    if constexpr (requires { engine.step_collect(out, options.pool, options.parallel_grain); }) {
        return engine.step_collect(out, options.pool, options.parallel_grain);
    } else if constexpr (ChangeReportingEngine<E>) {
        return engine.step_collect(out);
    } else {
        prev = engine.colors();
        std::size_t changed;
        if constexpr (requires { engine.step(options.pool, options.parallel_grain); }) {
            changed = engine.step(options.pool, options.parallel_grain);
        } else {
            changed = engine.step();
        }
        if (changed != 0) append_changes(prev, engine.colors(), out);
        return changed;
    }
}

} // namespace run_detail

/// Run `engine` until a terminal behaviour (see Termination and the header
/// comment for the exact round accounting), notifying `options.observers`
/// plus the automatic target/cycle observers along the way.
template <Engine E>
RunResult run_to_terminal(E& engine, const RunOptions& options = {}) {
    const std::size_t n = engine.colors().size();
    DYNAMO_REQUIRE(n > 0, "cannot run an empty field");
    // stop_on_quiescence = false declares a time-varying rule, under which
    // a repeated state proves nothing (the rule may act differently next
    // round) - cycle detection would misread a quiescent round as a
    // period-1 cycle. Reject the inconsistent combination loudly.
    DYNAMO_REQUIRE(options.stop_on_quiescence || !options.detect_cycles,
                   "detect_cycles needs a time-invariant rule; disable it when "
                   "stop_on_quiescence is false");
    const std::uint32_t cap = options.max_rounds != 0 ? options.max_rounds : auto_round_cap(n);

    // Assemble the observer list: automatic bookkeeping first, then the
    // caller's. Stored by pointer; the automatic ones live on this frame.
    std::optional<AdoptionTracker> tracker;
    std::optional<CycleDetector> cycles;
    std::vector<Observer*> observers;
    observers.reserve(options.observers.size() + 2);
    if (options.target) observers.push_back(&tracker.emplace(*options.target));
    if (options.detect_cycles) observers.push_back(&cycles.emplace());
    for (Observer* ob : options.observers) observers.push_back(ob);

    // Incremental color census: monochromatic detection is O(changed) per
    // round instead of a full-field scan.
    std::array<std::size_t, 256> counts{};
    std::size_t distinct = 0;
    for (const Color c : engine.colors()) {
        if (counts[c]++ == 0) ++distinct;
    }

    for (Observer* ob : observers) ob->on_start(engine.colors());

    RunResult result;
    const auto finish = [&](Termination termination, std::uint32_t rounds) -> RunResult& {
        result.termination = termination;
        result.rounds = rounds;
        if (termination == Termination::Monochromatic) result.mono = engine.colors().front();
        result.final_colors = engine.colors();
        for (Observer* ob : observers) ob->on_finish(result);
        return result;
    };

    // Degenerate but legal: an initially monochromatic field has already
    // reached the configuration.
    if (distinct == 1) return finish(Termination::Monochromatic, engine.round());

    std::vector<CellChange> changes;
    ColorField prev;  // used only by the foreign-engine diff fallback
    while (engine.round() < cap) {
        changes.clear();
        const std::size_t changed = run_detail::step_engine(engine, options, changes, prev);
        const std::uint32_t r = engine.round();

        if (changed == 0 && options.stop_on_quiescence) {
            // The state was already terminal before this no-op round.
            return finish(distinct == 1 ? Termination::Monochromatic : Termination::FixedPoint,
                          r - 1);
        }

        result.total_recolorings += changed;
        for (const CellChange& ch : changes) {
            if (--counts[ch.before] == 0) --distinct;
            if (counts[ch.after]++ == 0) ++distinct;
        }

        const RoundEvent event{r, changed, std::span<const CellChange>(changes),
                               engine.colors()};
        std::optional<StopRequest> stop;
        for (Observer* ob : observers) {
            auto request = ob->on_round(event);
            if (request && !stop) stop = request;
        }

        // Monochromatic wins over observer stops, matching the seed
        // driver's check order (mono before cycle lookup).
        if (distinct == 1) return finish(Termination::Monochromatic, r);
        if (stop) {
            result.cycle_period = stop->cycle_period;
            return finish(stop->termination, r);
        }
    }
    return finish(Termination::RoundLimit, engine.round());
}

/// Reusable bundle of options + observers: configure once, drive any
/// engine. Thin sugar over run_to_terminal.
class Runner {
  public:
    Runner() = default;
    explicit Runner(RunOptions options) : options_(std::move(options)) {}

    RunOptions& options() noexcept { return options_; }
    const RunOptions& options() const noexcept { return options_; }

    Runner& attach(Observer& observer) {
        options_.observers.push_back(&observer);
        return *this;
    }

    template <Engine E>
    RunResult run(E& engine) const {
        return run_to_terminal(engine, options_);
    }

  private:
    RunOptions options_;
};

} // namespace dynamo
