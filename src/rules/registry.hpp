// dynamo/rules/registry.hpp
//
// The runtime rule registry: names -> monomorphized entry points of the
// LocalRule family (core/sim/local_rule.hpp). Compile-time callers
// instantiate simulate_as<R>() directly; the registry is how *runtime*
// surfaces - the `dynamo` CLI's `--rule=` parameter, campaign manifests,
// the search drivers' SearchOptions::rule - reach the same monomorphized
// packed-path code without carrying a type. Every entry point is a plain
// function pointer into a template instantiation: no virtual dispatch in
// any per-cell loop, one indirect call per simulation/sweep.
//
// Registered rules (tests/test_rules.cpp pins each kernel against its
// reference functor over every neighborhood):
//
//   smp                                    the paper's protocol (default)
//   majority-prefer-black                  simple majority, ties to black [15]
//   majority-prefer-current                simple majority, ties keep [26]
//   strong-majority                        >= 3 of 4 neighbors
//   irreversible-majority                  [15]'s reverse simple majority
//   irreversible-majority-prefer-current   reverse simple majority, ties keep
//   irreversible-strong-majority           [15]'s reverse strong majority
//   threshold-1 .. threshold-4             Berger-style irreversible r-threshold
//   incremental                            the ordered "+1" rule of [4]/[5]
//
// The list is static (a fixed table, not self-registration): rules are
// code, and the set of monomorphized engines is a build-time property.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/dynamo.hpp"
#include "core/run/runner.hpp"
#include "core/sim/local_rule.hpp"
#include "grid/torus.hpp"
#include "util/parallel.hpp"

namespace dynamo::graphx {
class Graph;
}

namespace dynamo::rules {

/// Reusable type-erased verifier for search inner loops: owns one packed
/// engine per instance (reset per candidate, no per-candidate allocation)
/// and the search->rule color-convention bridge. `initial` is always in
/// the SEARCH convention - seeds hold color 1, the complement colors
/// 2..|C|. Color-symmetric rules run it verbatim with target 1; bi-color
/// rules view the seeds as the black (faulty) faction - color 1 maps to
/// kBlack, everything else to kWhite - and verify black flooding, the
/// dynamo semantics of [15].
class RuleVerifier {
  public:
    virtual ~RuleVerifier() = default;
    virtual QuickVerdict verify(const ColorField& initial) = 0;
};

/// One registered rule: identity metadata plus monomorphized entry points.
struct RuleInfo {
    const char* name;     ///< registry key, also the CLI `--rule=` value
    const char* summary;  ///< one line for CLI errors and docs
    Color min_colors;     ///< smallest admissible palette
    Color max_colors;     ///< largest admissible palette; 0 = unbounded
    sim::TiePolicy tie;
    bool irreversible;     ///< one color absorbing: every run is monotone
    bool color_symmetric;  ///< equivariant under arbitrary color permutations

    /// The cell kernel itself (diagnostics, kernel-parity tests).
    Color (*next)(Color own, Color a, Color b, Color c, Color d);
    /// One packed stencil round (rule_stencil_sweep<R> instantiation).
    std::size_t (*sweep)(const grid::Torus&, const Color*, Color*, ThreadPool*, std::size_t);
    /// One seed-style table-driven round (the Generic baseline).
    std::size_t (*generic_sweep)(const grid::Torus&, const Color*, Color*, ThreadPool*,
                                 std::size_t);
    /// simulate_as<R> - the full Backend-selected run.
    RunResult (*run)(const grid::Torus&, const ColorField&, const RunOptions&);
    /// The same rule on an arbitrary 4-regular CSR graph (torus-as-graph,
    /// random regular expanders) through the frontier-driven graph engine
    /// (core/sim/csr_graph_engine.hpp). Sound for every registered rule
    /// because all are slot-symmetric; throws std::invalid_argument when
    /// the graph is not 4-regular.
    RunResult (*run_graph)(const graphx::Graph&, const ColorField&, const RunOptions&);
    /// Evidence-free verdict under this rule (field in the RULE's own color
    /// conventions, k the flooding target).
    QuickVerdict (*quick_verify)(const grid::Torus&, const ColorField&, Color k);
    /// Search-convention verifier factory (see RuleVerifier).
    std::unique_ptr<RuleVerifier> (*make_search_verifier)(const grid::Torus&);

    /// Does this rule have a word-parallel bit-plane kernel
    /// (sim::kBitplaneSupported<R>, core/sim/bitplane_engine.hpp)? All
    /// shipped rules do; the flag exists so backend_supports() can answer
    /// for future registry entries without one.
    bool bitplane;
    /// Raw bit-plane sweep throughput (sim::bitplane_cells_per_sec<R>),
    /// for bench_perf_engine's bit-plane section; nullptr when !bitplane.
    double (*bitplane_cells_per_sec)(const grid::Torus&, const ColorField&, int warmup,
                                     int rounds);
    /// Up to sim::kLanes independent runs from the lane-major fields
    /// `initial` (lane t's field at initial + t * |V|, palette at most
    /// sim::kLaneMaxColors), advanced together by the lane engine
    /// (core/sim/lane_engine.hpp). Lanes it leaves live after its round
    /// budget are re-run one by one through `run`, so out[t] always equals
    /// summarize(run(torus, field t, {}), k). nullptr when !bitplane.
    void (*run_lanes)(const grid::Torus&, const Color* initial, std::size_t lanes, Color k,
                      RunSummary* out);

    bool bicolor() const noexcept { return max_colors == 2; }
    /// Is a palette of |C| colors admissible under this rule?
    bool admits_palette(Color total_colors) const noexcept {
        return total_colors >= min_colors && (max_colors == 0 || total_colors <= max_colors);
    }
};

/// Lookup by registry name; nullptr if unknown.
const RuleInfo* find_rule(std::string_view name);

/// Lookup that throws std::invalid_argument naming the known rules.
const RuleInfo& rule_or_throw(const std::string& name);

/// The SMP entry (the default rule everywhere a rule is optional).
const RuleInfo& smp_rule();

/// All registered rules in name order (catalogs, docs, benches).
const std::vector<const RuleInfo*>& all_rules();

/// "incremental, irreversible-majority, ..." - for error messages.
std::string known_rule_names();

/// Can `backend` step `rule`? The runtime face of the engine-capability
/// queries: simulate_as<R> answers the same question at compile time, and
/// scenario/manifest validation asks here BEFORE launching a campaign so
/// an unsupported rule x backend combination fails at bind time with one
/// actionable message (backend_support_error) instead of mid-run.
bool backend_supports(Backend backend, const RuleInfo& rule) noexcept;

/// "" when supported; otherwise the one refusal message, listing the
/// backends that CAN step the rule (backend_unsupported_message).
std::string backend_support_error(Backend backend, const RuleInfo& rule);

/// Backends able to step `rule`, as a "active, auto, ..." list.
std::string supported_backend_names(const RuleInfo& rule);

} // namespace dynamo::rules
