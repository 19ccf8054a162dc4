#include "core/dynamo.hpp"

#include <sstream>

#include "core/run/runner.hpp"
#include "core/sim/packed_engine.hpp"
#include "rules/registry.hpp"

namespace dynamo {

std::string DynamoVerdict::summary() const {
    std::ostringstream os;
    if (is_dynamo) {
        os << (is_monotone ? "monotone dynamo" : "non-monotone dynamo") << ", "
           << trace.rounds << " rounds";
    } else {
        os << "not a dynamo (" << to_string(trace.termination);
        if (trace.termination == Termination::Cycle) os << ", period " << trace.cycle_period;
        os << " after " << trace.rounds << " rounds)";
    }
    return os.str();
}

DynamoVerdict verify_dynamo(const grid::Torus& torus, const ColorField& initial, Color k,
                            ThreadPool* pool) {
    RunOptions opts;
    opts.target = k;
    opts.pool = pool;
    DynamoVerdict verdict;
    verdict.trace = simulate(torus, initial, opts);
    verdict.is_dynamo = verdict.trace.reached_mono(k);
    verdict.is_monotone = verdict.is_dynamo && verdict.trace.monotone;
    return verdict;
}

QuickVerdict classify_quick_verdict(const RunResult& result, Color k) {
    QuickVerdict verdict;
    verdict.rounds = result.rounds;
    verdict.is_dynamo = result.reached_mono(k);
    verdict.is_monotone = verdict.is_dynamo && result.monotone;
    return verdict;
}

QuickVerdict quick_verify_dynamo(const grid::Torus& torus, const ColorField& initial, Color k) {
    sim::PackedEngine engine(torus, initial);
    RunOptions opts;
    opts.target = k;
    return classify_quick_verdict(run_to_terminal(engine, opts), k);
}

QuickVerdict quick_verify_dynamo(sim::PackedEngine& engine, const ColorField& initial, Color k) {
    engine.reset(initial);
    RunOptions opts;
    opts.target = k;
    return classify_quick_verdict(run_to_terminal(engine, opts), k);
}

QuickVerdict quick_verify_dynamo(const grid::Torus& torus, const ColorField& initial, Color k,
                                 const rules::RuleInfo& rule) {
    return rule.quick_verify(torus, initial, k);
}

bool has_non_dynamo_certificate(const grid::Torus& torus, const ColorField& initial, Color k) {
    // A non-k-block never adopts k (each member has at most one k-colored
    // neighbor, and that stays true because members only recolor among
    // themselves) - so its presence certifies the failure without a run.
    return has_non_k_block(torus, initial, k);
}

} // namespace dynamo
