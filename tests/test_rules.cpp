// Rule-layer oracle tests for the LocalRule family (core/sim/local_rule.hpp
// + rules/): exhaustive kernel parity of every branchless rule against its
// runtime reference functor (the SMP-style 5^5 neighborhood sweep),
// registry round-trips and metadata invariants (unanimity fixed points
// inside the admissible palette, absorbing black under irreversible rules,
// color equivariance where claimed), packed-vs-generic sweep parity per
// rule x topology, the search-convention RuleVerifier bridge, and
// rule-generic search parity (quotiented sharded driver vs the serial
// enumerator under non-SMP rules).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/dynamo.hpp"
#include "core/search/enumerate.hpp"
#include "core/search/sharded.hpp"
#include "core/sim/kernels.hpp"
#include "core/transform.hpp"
#include "rules/incremental.hpp"
#include "rules/majority.hpp"
#include "rules/registry.hpp"
#include "rules/threshold.hpp"
#include "util/rng.hpp"

namespace dynamo {
namespace {

using grid::Topology;
using grid::Torus;

constexpr Topology kTopologies[] = {Topology::ToroidalMesh, Topology::TorusCordalis,
                                    Topology::TorusSerpentinus};

/// Exhaustive 5^5 parity of a LocalRule kernel against a reference
/// functor: every multiset shape in every slot order, own both inside and
/// outside the neighborhood (and outside the bi-color palette - the
/// functors are total over colors, and the kernels must match them there
/// too, since that equality is what "bit-identical" means).
template <sim::LocalRule R, typename Ref>
void expect_kernel_matches(const Ref& ref) {
    for (Color own = 1; own <= 5; ++own) {
        for (Color a = 1; a <= 5; ++a) {
            for (Color b = 1; b <= 5; ++b) {
                for (Color c = 1; c <= 5; ++c) {
                    for (Color d = 1; d <= 5; ++d) {
                        const std::array<Color, grid::kDegree> nbr{a, b, c, d};
                        ASSERT_EQ(R::next(own, a, b, c, d), ref(own, nbr))
                            << R::kName << " own=" << int(own) << " nbr=" << int(a) << int(b)
                            << int(c) << int(d);
                    }
                }
            }
        }
    }
}

TEST(RuleKernels, EveryBranchlessKernelMatchesItsReferenceFunctor) {
    using rules::MajorityKind;
    using rules::MajorityRule;
    using sim::TiePolicy;
    expect_kernel_matches<sim::SmpRule>(
        [](Color own, const std::array<Color, grid::kDegree>& nbr) {
            return smp_update(own, nbr);
        });
    expect_kernel_matches<rules::MajorityPreferBlack>(
        MajorityRule{MajorityKind::Simple, TiePolicy::PreferBlack, false});
    expect_kernel_matches<rules::MajorityPreferCurrent>(
        MajorityRule{MajorityKind::Simple, TiePolicy::PreferCurrent, false});
    expect_kernel_matches<rules::StrongMajority>(
        MajorityRule{MajorityKind::Strong, TiePolicy::PreferBlack, false});
    expect_kernel_matches<rules::IrreversibleMajority>(rules::reverse_simple_majority());
    expect_kernel_matches<rules::IrreversibleMajorityPreferCurrent>(
        MajorityRule{MajorityKind::Simple, TiePolicy::PreferCurrent, true});
    expect_kernel_matches<rules::IrreversibleStrongMajority>(rules::reverse_strong_majority());
    expect_kernel_matches<rules::Threshold<1>>(rules::ThresholdRule{1});
    expect_kernel_matches<rules::Threshold<2>>(rules::ThresholdRule{2});
    expect_kernel_matches<rules::Threshold<3>>(rules::ThresholdRule{3});
    expect_kernel_matches<rules::Threshold<4>>(rules::ThresholdRule{4});
    expect_kernel_matches<rules::IncrementalStep>(rules::IncrementalRule{5});
}

TEST(RuleRegistry, LookupRoundTripsAndNamesTheIssueSet) {
    const auto& all = rules::all_rules();
    EXPECT_GE(all.size(), 6u) << "the PR promises >= 6 named packed-path rules";
    for (const rules::RuleInfo* rule : all) {
        EXPECT_EQ(rules::find_rule(rule->name), rule) << rule->name;
        EXPECT_NE(rule->next, nullptr) << rule->name;
        EXPECT_NE(rule->sweep, nullptr) << rule->name;
        EXPECT_NE(rule->generic_sweep, nullptr) << rule->name;
        EXPECT_NE(rule->run, nullptr) << rule->name;
        EXPECT_NE(rule->quick_verify, nullptr) << rule->name;
        EXPECT_NE(rule->make_search_verifier, nullptr) << rule->name;
    }
    for (const char* name :
         {"smp", "majority-prefer-black", "majority-prefer-current", "strong-majority",
          "irreversible-majority", "threshold-2"}) {
        EXPECT_NE(rules::find_rule(name), nullptr) << name;
    }
    EXPECT_EQ(rules::find_rule("no-such-rule"), nullptr);
    EXPECT_EQ(std::string(rules::smp_rule().name), "smp");
    EXPECT_TRUE(rules::smp_rule().color_symmetric);
    EXPECT_FALSE(rules::smp_rule().bicolor());
    try {
        rules::rule_or_throw("bogus");
        FAIL() << "rule_or_throw must reject unknown names";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("majority-prefer-black"), std::string::npos)
            << "the error must list the known rules: " << e.what();
    }
}

TEST(RuleRegistry, MetadataInvariantsHoldExhaustively) {
    for (const rules::RuleInfo* rule : rules::all_rules()) {
        // Unanimity inside the admissible palette is a fixed point: this
        // is what makes Termination::Monochromatic terminal per rule.
        const Color palette_max = rule->max_colors == 0 ? Color(5) : rule->max_colors;
        for (Color c = 1; c <= palette_max; ++c) {
            EXPECT_EQ(rule->next(c, c, c, c, c), c) << rule->name << " color " << int(c);
        }
        // Irreversible rules never map black off black, for ANY
        // neighborhood - the monotone fault semantics.
        if (rule->irreversible) {
            for (Color a = 1; a <= 3; ++a) {
                for (Color b = 1; b <= 3; ++b) {
                    for (Color c = 1; c <= 3; ++c) {
                        for (Color d = 1; d <= 3; ++d) {
                            EXPECT_EQ(rule->next(kBlack, a, b, c, d), kBlack) << rule->name;
                        }
                    }
                }
            }
        }
    }
    // Claimed color symmetry is real: SMP commutes with a non-trivial
    // color permutation on every neighborhood.
    const auto perm = [](Color c) { return static_cast<Color>(c == 4 ? 1 : c + 1); };  // 4-cycle
    for (Color own = 1; own <= 4; ++own) {
        for (Color a = 1; a <= 4; ++a) {
            for (Color b = 1; b <= 4; ++b) {
                for (Color c = 1; c <= 4; ++c) {
                    for (Color d = 1; d <= 4; ++d) {
                        ASSERT_EQ(perm(sim::SmpRule::next(own, a, b, c, d)),
                                  sim::SmpRule::next(perm(own), perm(a), perm(b), perm(c),
                                                     perm(d)));
                    }
                }
            }
        }
    }
}

ColorField random_field_for(const rules::RuleInfo& rule, std::size_t size, Xoshiro256& rng) {
    const Color colors = rule.bicolor() ? 2 : 4;
    ColorField f(size);
    for (auto& c : f) c = static_cast<Color>(1 + rng.below(colors));
    return f;
}

TEST(RuleSweeps, PackedStencilMatchesGenericTableSweepLockstep) {
    // The packed-path acceptance oracle at the sweep level: for every
    // registered rule and topology, the monomorphized stencil sweep and
    // the seed-style table-driven sweep produce identical change counts
    // and buffers round for round (including degenerate 2-wide grids
    // where neighbor slots alias).
    Xoshiro256 rng(0x21e5);
    for (const rules::RuleInfo* rule : rules::all_rules()) {
        for (const Topology topo : kTopologies) {
            for (const auto& [m, n] : {std::pair{2u, 2u}, {2u, 9u}, {3u, 3u}, {9u, 7u}}) {
                const Torus t(topo, m, n);
                ColorField a = random_field_for(*rule, t.size(), rng);
                ColorField b = a;
                ColorField a_next(t.size()), b_next(t.size());
                for (int r = 0; r < 16; ++r) {
                    const std::size_t ca =
                        rule->sweep(t, a.data(), a_next.data(), nullptr, 1 << 14);
                    const std::size_t cb =
                        rule->generic_sweep(t, b.data(), b_next.data(), nullptr, 1 << 14);
                    ASSERT_EQ(ca, cb) << rule->name << " " << to_string(topo) << " " << m << "x"
                                      << n << " round " << r;
                    ASSERT_EQ(a_next, b_next) << rule->name << " " << to_string(topo) << " " << m
                                              << "x" << n << " round " << r;
                    a.swap(a_next);
                    b.swap(b_next);
                }
            }
        }
    }
}

TEST(RuleVerify, QuickVerifyAndSearchVerifierBridgeConventions) {
    const Torus t(Topology::ToroidalMesh, 3, 3);
    const rules::RuleInfo& contagion = *rules::find_rule("threshold-1");
    const rules::RuleInfo& two_threshold = *rules::find_rule("threshold-2");

    // Rule-convention quick verify: one black cell on a bi-color field.
    ColorField one_black(t.size(), kWhite);
    one_black[t.index(1, 1)] = kBlack;
    EXPECT_TRUE(quick_verify_dynamo(t, one_black, kBlack, contagion).is_monotone);
    EXPECT_FALSE(quick_verify_dynamo(t, one_black, kBlack, two_threshold).is_dynamo);

    // Search-convention verifier: seeds hold color 1, complement color 2;
    // bi-color rules read the seeds as the black faction.
    ColorField search_field(t.size(), 2);
    search_field[t.index(1, 1)] = 1;
    const auto v1 = contagion.make_search_verifier(t);
    EXPECT_TRUE(v1->verify(search_field).is_monotone);
    const auto v2 = two_threshold.make_search_verifier(t);
    EXPECT_FALSE(v2->verify(search_field).is_dynamo);
    // Reusable across candidates (the search hot-loop contract).
    EXPECT_TRUE(v1->verify(search_field).is_monotone);

    // The SMP verifier is the seed-era quick_verify_dynamo bit for bit.
    Xoshiro256 rng(0xabcd);
    const auto smp_verifier = rules::smp_rule().make_search_verifier(t);
    for (int trial = 0; trial < 16; ++trial) {
        ColorField f(t.size());
        for (auto& c : f) c = static_cast<Color>(1 + rng.below(3));
        const QuickVerdict direct = quick_verify_dynamo(t, f, 1);
        const QuickVerdict bridged = smp_verifier->verify(f);
        EXPECT_EQ(direct.is_dynamo, bridged.is_dynamo) << trial;
        EXPECT_EQ(direct.is_monotone, bridged.is_monotone) << trial;
        EXPECT_EQ(direct.rounds, bridged.rounds) << trial;
    }
}

TEST(RuleSearch, QuotientedSearchMatchesSerialOracleUnderBicolorRules) {
    // Rule-generic search parity: on |C| = 2 palettes the symmetry
    // quotient is sound for every rule (relabeling the single non-seed
    // color is the identity), so the sharded canonical driver must decide
    // exactly what the raw-space serial enumerator decides.
    const Torus t(Topology::ToroidalMesh, 3, 3);
    for (const char* name : {"irreversible-majority", "threshold-1", "threshold-2",
                             "majority-prefer-black", "strong-majority"}) {
        const rules::RuleInfo* rule = rules::find_rule(name);
        ASSERT_NE(rule, nullptr) << name;

        SearchOptions serial_opts;
        serial_opts.total_colors = 2;
        serial_opts.rule = rule;
        const SearchOutcome serial = exhaustive_min_dynamo(t, 4, serial_opts);

        ParallelSearchOptions par;
        par.base = serial_opts;
        par.num_shards = 3;
        const SearchOutcome quotiented = parallel_min_dynamo(t, 4, par);

        EXPECT_EQ(serial.complete, quotiented.complete) << name;
        EXPECT_EQ(serial.min_size, quotiented.min_size) << name;
        // The quotient covers the same raw space the oracle walked.
        if (serial.complete && serial.min_size == SearchOutcome::kNoDynamo) {
            EXPECT_EQ(quotiented.covered, serial.candidates) << name;
        }
    }

    // Pinned minima: contagion floods from any single seed; the known
    // [15]-style two-seed mechanism floods under irreversible simple
    // majority on the 3x3.
    SearchOptions opts;
    opts.total_colors = 2;
    opts.rule = rules::find_rule("threshold-1");
    EXPECT_EQ(exhaustive_min_dynamo(t, 2, opts).min_size, 1u);
    opts.rule = rules::find_rule("irreversible-majority");
    EXPECT_EQ(exhaustive_min_dynamo(t, 3, opts).min_size, 2u);
}

TEST(RuleSearch, UnsoundCombinationsAreRefusedLoudly) {
    const Torus t(Topology::ToroidalMesh, 3, 3);
    // Bi-color rule on a 3-color palette: inadmissible.
    SearchOptions opts;
    opts.total_colors = 3;
    opts.rule = rules::find_rule("irreversible-majority");
    EXPECT_THROW(exhaustive_min_dynamo(t, 1, opts), std::invalid_argument);
    ParallelSearchOptions par;
    par.base = opts;
    EXPECT_THROW(parallel_min_dynamo(t, 1, par), std::invalid_argument);

    // Non-color-symmetric rule with |C| >= 3: the relabeling quotient is
    // unsound and must be refused (not silently mis-counted)...
    par.base.rule = rules::find_rule("incremental");
    EXPECT_THROW(parallel_min_dynamo(t, 1, par), std::invalid_argument);
    // ...but the raw-space decomposition is fine.
    par.use_symmetry = false;
    par.base.max_sims = 20'000;
    const SearchOutcome raw = parallel_min_dynamo(t, 1, par);
    EXPECT_TRUE(raw.complete);

    // SMP-specific prunes are refused for other rules.
    SearchOptions pruned;
    pruned.total_colors = 2;
    pruned.rule = rules::find_rule("threshold-2");
    pruned.use_block_prune = true;
    EXPECT_THROW(exhaustive_min_dynamo(t, 1, pruned), std::invalid_argument);
}

TEST(RuleSearch, CheckpointsNeverCrossRules) {
    // The checkpoint fingerprint mixes the rule name: a cursor written
    // under one rule must be rejected by a resume under another.
    const Torus t(Topology::ToroidalMesh, 3, 3);
    ParallelSearchOptions opts;
    opts.base.total_colors = 2;
    opts.base.rule = rules::find_rule("irreversible-majority");
    opts.pause_after_units = 1;
    SearchCheckpoint checkpoint;
    const SearchOutcome paused = parallel_min_dynamo(t, 3, opts, &checkpoint);
    ASSERT_TRUE(paused.paused);
    ASSERT_TRUE(checkpoint.active);

    ParallelSearchOptions other = opts;
    other.base.rule = rules::find_rule("threshold-2");
    EXPECT_THROW(parallel_min_dynamo(t, 3, other, &checkpoint), std::invalid_argument);
}

TEST(RuleSimulate, DispatchHelpersRideTheMonomorphizedPath) {
    // simulate_majority / simulate_threshold / simulate_incremental pick
    // the LocalRule instantiation matching their runtime configuration:
    // their results must equal the registry's monomorphized entry point
    // on every backend.
    Xoshiro256 rng(0x51);
    const Torus t(Topology::TorusCordalis, 6, 5);
    ColorField bi(t.size());
    for (auto& c : bi) c = static_cast<Color>(1 + rng.below(2));

    const RunResult via_helper = rules::simulate_majority(t, bi, rules::reverse_simple_majority());
    const RunResult via_registry =
        rules::find_rule("irreversible-majority")->run(t, bi, RunOptions{});
    EXPECT_EQ(via_helper.termination, via_registry.termination);
    EXPECT_EQ(via_helper.rounds, via_registry.rounds);
    EXPECT_EQ(via_helper.final_colors, via_registry.final_colors);

    const RunResult thr_helper = rules::simulate_threshold(t, bi, 3);
    const RunResult thr_registry = rules::find_rule("threshold-3")->run(t, bi, RunOptions{});
    EXPECT_EQ(thr_helper.rounds, thr_registry.rounds);
    EXPECT_EQ(thr_helper.final_colors, thr_registry.final_colors);

    ColorField multi(t.size());
    for (auto& c : multi) c = static_cast<Color>(1 + rng.below(4));
    const RunResult inc_helper = rules::simulate_incremental(t, multi, 4);
    const RunResult inc_registry = rules::find_rule("incremental")->run(t, multi, RunOptions{});
    EXPECT_EQ(inc_helper.rounds, inc_registry.rounds);
    EXPECT_EQ(inc_helper.final_colors, inc_registry.final_colors);
}

} // namespace
} // namespace dynamo
