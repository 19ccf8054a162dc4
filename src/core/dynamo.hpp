// dynamo/core/dynamo.hpp
//
// Dynamo verification (paper Definitions 2 and 3): given an initial
// coloring and a target color k, decide by simulation whether S_k is a
// dynamo (a k-monochromatic configuration is reached in finite time) and
// whether it is monotone (the k-colored set only ever grows).
//
// Termination is guaranteed: the system is finite and deterministic, so
// the engine's cycle detection (or its round cap) bounds every run.
#pragma once

#include <string>

#include "core/blocks.hpp"
#include "core/run/simulate.hpp"
#include "core/sim/packed_engine.hpp"

namespace dynamo {

namespace rules {
struct RuleInfo;
}

struct DynamoVerdict {
    bool is_dynamo = false;    ///< reached the k-monochromatic configuration
    bool is_monotone = false;  ///< and the k-set never shrank (Definition 3)
    RunResult trace;           ///< full simulation evidence

    /// Short human-readable explanation for benches and error messages.
    std::string summary() const;
};

/// Simulate and classify. `pool` may be null (serial).
DynamoVerdict verify_dynamo(const grid::Torus& torus, const ColorField& initial, Color k,
                            ThreadPool* pool = nullptr);

/// Evidence-free verdict for search inner loops: same classification as
/// verify_dynamo, but simulated on the packed full-sweep engine via
/// run_to_terminal without retaining the RunResult. Semantically
/// identical (the engines are bit-identical; tests/test_search_parallel.cpp
/// cross-checks the verdicts), just cheaper per candidate.
struct QuickVerdict {
    bool is_dynamo = false;
    bool is_monotone = false;
    std::uint32_t rounds = 0;
};

/// Classify a finished run as a QuickVerdict for target k. The ONE
/// verdict fold, shared by the quick_verify_dynamo overloads and the
/// rule registry's monomorphized verifiers (rules/registry.cpp).
QuickVerdict classify_quick_verdict(const RunResult& result, Color k);
QuickVerdict quick_verify_dynamo(const grid::Torus& torus, const ColorField& initial, Color k);

/// Hot-loop overload: resets a caller-owned engine to `initial` and runs
/// it, so per-candidate heap allocation drops out of search inner loops.
/// The engine's torus must match the field.
QuickVerdict quick_verify_dynamo(sim::PackedEngine& engine, const ColorField& initial, Color k);

/// Rule-generic verdict: same classification, simulated under `rule`'s
/// packed engine (rules/registry.hpp) with `initial` in the rule's own
/// color conventions and k the flooding target. The two-argument forms
/// above remain the SMP instantiation.
QuickVerdict quick_verify_dynamo(const grid::Torus& torus, const ColorField& initial, Color k,
                                 const rules::RuleInfo& rule);

/// Fast *negative* certificate (no simulation): if the complement of S_k
/// already contains a non-k-block (Definition 5), S_k cannot be a dynamo.
/// Returns true when such a certificate exists.
bool has_non_dynamo_certificate(const grid::Torus& torus, const ColorField& initial, Color k);

} // namespace dynamo
