// Shared helpers for the experiment binaries. Every bench prints a banner
// naming the paper artifact it regenerates, one or more ConsoleTables, and
// a PASS/FAIL-style comparison against the paper where one exists, so that
// bench_output.txt is a self-contained reproduction record (EXPERIMENTS.md
// is written from it).
#pragma once

#include <iostream>
#include <string>

#include "core/bounds.hpp"
#include "core/builders.hpp"
#include "core/conditions.hpp"
#include "core/dynamo.hpp"
#include "core/run/simulate.hpp"
#include "grid/torus.hpp"
#include "io/ascii.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace dynamo::bench {

/// Simulate with target-color bookkeeping enabled (run API: Backend::Auto
/// routes serial SMP runs through the active-set fast path; the
/// AdoptionTracker observer fills k_time/newly_k/monotone).
inline RunResult run_traced(const grid::Torus& torus, const Configuration& cfg) {
    RunOptions opts;
    opts.target = cfg.k;
    return simulate(torus, cfg.field, opts);
}

inline const char* yesno(bool b) { return b ? "yes" : "no"; }

inline std::string match_tag(std::uint32_t measured, std::uint32_t predicted) {
    if (measured == predicted) return "match";
    const std::int64_t d = static_cast<std::int64_t>(measured) - predicted;
    std::string tag = std::to_string(d);
    if (d > 0) tag.insert(tag.begin(), '+');
    return tag;
}

} // namespace dynamo::bench
