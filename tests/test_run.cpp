// Run-API tests: backend-independent terminal-round semantics (one Runner
// over packed / active / generic engines, bit-identical RunResults),
// ActiveEngine terminal behaviours driven through the Runner, observer
// composition (census series, frame dumper, cycle detector), GraphEngine
// under the shared Runner, and BatchRunner substream determinism.
#include <gtest/gtest.h>

#include <filesystem>

#include "analysis/census_series.hpp"
#include "core/builders.hpp"
#include "core/run/batch.hpp"
#include "core/run/runner.hpp"
#include "core/run/simulate.hpp"
#include "core/sim/active_engine.hpp"
#include "graph/generators.hpp"
#include "graph/graph_engine.hpp"
#include "io/frame_dumper.hpp"
#include "rules/registry.hpp"
#include "util/rng.hpp"

namespace dynamo {
namespace {

using grid::Topology;
using grid::Torus;

constexpr Topology kTopologies[] = {Topology::ToroidalMesh, Topology::TorusCordalis,
                                    Topology::TorusSerpentinus};
constexpr Backend kBackends[] = {Backend::Packed, Backend::Active, Backend::Generic,
                                 Backend::BitPlane};

ColorField checkerboard(const Torus& t, Color a, Color b) {
    ColorField f(t.size());
    for (grid::VertexId v = 0; v < t.size(); ++v) {
        const auto c = t.coord(v);
        f[v] = ((c.i + c.j) % 2 == 0) ? a : b;
    }
    return f;
}

ColorField random_field(const Torus& t, Color colors, Xoshiro256& rng) {
    ColorField f(t.size());
    for (auto& c : f) c = static_cast<Color>(1 + rng.below(colors));
    return f;
}

void expect_results_identical(const RunResult& a, const RunResult& b, const std::string& tag) {
    EXPECT_EQ(a.termination, b.termination) << tag;
    EXPECT_EQ(a.rounds, b.rounds) << tag;
    EXPECT_EQ(a.mono, b.mono) << tag;
    EXPECT_EQ(a.cycle_period, b.cycle_period) << tag;
    EXPECT_EQ(a.total_recolorings, b.total_recolorings) << tag;
    EXPECT_EQ(a.final_colors, b.final_colors) << tag;
    EXPECT_EQ(a.k_time, b.k_time) << tag;
    EXPECT_EQ(a.newly_k, b.newly_k) << tag;
    EXPECT_EQ(a.monotone, b.monotone) << tag;
}

TEST(RunBackends, AllBackendsProduceBitIdenticalResults) {
    // The acceptance oracle: Backend::Generic is the seed table-driven
    // driver; Packed and Active (the Auto default) must match it on every
    // field of the result, across dynamos, stalls, oscillations, and
    // random fields, on all three topologies.
    Xoshiro256 rng(0x5eed);
    for (const Topology topo : kTopologies) {
        Torus t(topo, 9, 8);
        std::vector<std::pair<std::string, ColorField>> scenarios;
        scenarios.emplace_back("dynamo", build_minimum_dynamo(t).field);
        scenarios.emplace_back("checkerboard", checkerboard(t, 1, 2));
        scenarios.emplace_back("mono", ColorField(t.size(), 3));
        for (int trial = 0; trial < 4; ++trial) {
            scenarios.emplace_back("random" + std::to_string(trial), random_field(t, 4, rng));
        }

        for (const auto& [name, field] : scenarios) {
            RunOptions opts;
            opts.target = 1;
            opts.backend = Backend::Generic;
            const RunResult reference = simulate(t, field, opts);
            for (const Backend backend :
                 {Backend::Packed, Backend::Active, Backend::BitPlane, Backend::Auto}) {
                opts.backend = backend;
                const RunResult result = simulate(t, field, opts);
                expect_results_identical(reference, result,
                                         std::string(to_string(topo)) + "/" + name +
                                             "/backend=" + backend_name(backend));
            }
        }
    }
}

TEST(RunBackends, EveryRegisteredRuleIsBitIdenticalAcrossBackends) {
    // The rule-generic acceptance oracle: for EVERY registered rule
    // (rules/registry.hpp) and every topology, Backend::Generic (the seed
    // table-driven sweep of the rule) must match Packed, Active, and Auto
    // on every field of the RunResult - dynamos, stalls, oscillations,
    // random fields. This is the engine-level half of the rule-parity net
    // (tests/test_rules.cpp pins the kernels and sweeps).
    Xoshiro256 rng(0x51e);
    for (const rules::RuleInfo* rule : rules::all_rules()) {
        const Color palette = rule->bicolor() ? 2 : 4;
        for (const Topology topo : kTopologies) {
            Torus t(topo, 7, 6);
            std::vector<std::pair<std::string, ColorField>> scenarios;
            scenarios.emplace_back("checkerboard", checkerboard(t, 1, 2));
            scenarios.emplace_back("mono", ColorField(t.size(), palette));
            ColorField lone(t.size(), 1);
            lone[t.index(3, 3)] = 2;
            scenarios.emplace_back("lone-black", lone);
            for (int trial = 0; trial < 3; ++trial) {
                scenarios.emplace_back("random" + std::to_string(trial),
                                       random_field(t, palette, rng));
            }

            for (const auto& [name, field] : scenarios) {
                RunOptions opts;
                opts.target = rule->bicolor() ? Color(2) : Color(1);
                opts.backend = Backend::Generic;
                const RunResult reference = rule->run(t, field, opts);
                for (const Backend backend :
                     {Backend::Packed, Backend::Active, Backend::BitPlane, Backend::Auto}) {
                    if (backend == Backend::BitPlane &&
                        !rules::backend_supports(backend, *rule)) {
                        continue;  // defensive: every shipped rule has a word kernel
                    }
                    opts.backend = backend;
                    const RunResult result = rule->run(t, field, opts);
                    expect_results_identical(reference, result,
                                             std::string(rule->name) + "/" + to_string(topo) +
                                                 "/" + name + "/backend=" +
                                                 backend_name(backend));
                }
                // Irreversible rules are monotone by construction on every
                // run that the tracker observed.
                if (rule->irreversible) {
                    EXPECT_TRUE(reference.monotone)
                        << rule->name << "/" << to_string(topo) << "/" << name;
                }
            }
        }
    }
}

TEST(RunBackends, TerminalRoundSemanticsAgreeOnQuiescence) {
    // Satellite: quiescence accounting is defined once. A run that stalls
    // on round r reports r-1 on every backend.
    Torus t(Topology::ToroidalMesh, 6, 7);  // the Fig-4 pattern is mesh-only
    const Configuration cfg = build_fig4_stalled_configuration(t);
    for (const Backend backend : kBackends) {
        RunOptions opts;
        opts.backend = backend;
        const RunResult result = simulate(t, cfg.field, opts);
        EXPECT_EQ(result.termination, Termination::FixedPoint) << int(backend);
        EXPECT_EQ(result.rounds, 0u) << int(backend);
        EXPECT_EQ(result.total_recolorings, 0u) << int(backend);
    }
}

TEST(RunBackends, FrontierRunAgreesWithSimulateRounds) {
    for (const Topology topo : kTopologies) {
        Torus t(topo, 11, 9);
        const Configuration cfg = build_minimum_dynamo(t);
        const RunResult reference = simulate(t, cfg.field);

        sim::ActiveEngine engine(t, cfg.field);
        RunOptions opts;
        opts.max_rounds = auto_round_cap(t.size());
        opts.detect_cycles = false;
        const std::uint32_t rounds = run_to_terminal(engine, opts).rounds;
        EXPECT_EQ(rounds, reference.rounds) << to_string(topo);
        EXPECT_EQ(engine.colors(), reference.final_colors) << to_string(topo);
    }
    // Initially monochromatic: 0 rounds, no stepping needed to know it.
    Torus t(Topology::ToroidalMesh, 5, 5);
    sim::ActiveEngine engine(t, ColorField(t.size(), 2));
    RunOptions opts;
    opts.max_rounds = 100;
    opts.detect_cycles = false;
    EXPECT_EQ(run_to_terminal(engine, opts).rounds, 0u);
    EXPECT_EQ(engine.round(), 0u);
}

TEST(RunBackends, PooledRunsAreBitIdenticalToSerialOnEveryBackend) {
    // The segmented active-set engine (and every other backend) is
    // pool-aware: an explicit backend + pool must produce the same
    // RunResult bit for bit as the same backend serial - phase 2 of the
    // active sweep stays serial precisely so the change lists and
    // activation order cannot depend on scheduling.
    Xoshiro256 rng(0x9001);
    ThreadPool pool(3);
    for (const Topology topo : kTopologies) {
        Torus t(topo, 17, 13);
        for (int trial = 0; trial < 3; ++trial) {
            const ColorField f = random_field(t, 4, rng);
            for (const Backend backend : kBackends) {
                RunOptions serial_opts;
                serial_opts.backend = backend;
                serial_opts.target = 1;
                const RunResult serial = simulate(t, f, serial_opts);

                RunOptions pooled_opts = serial_opts;
                pooled_opts.pool = &pool;
                pooled_opts.parallel_grain = 1;
                const RunResult pooled = simulate(t, f, pooled_opts);
                expect_results_identical(serial, pooled,
                                         std::string(to_string(topo)) + "/trial" +
                                             std::to_string(trial) + "/backend=" +
                                             backend_name(backend));
            }
        }
    }
    // Auto with a pool now takes the pooled active path and must succeed.
    Torus t(Topology::ToroidalMesh, 6, 6);
    RunOptions opts;
    opts.backend = Backend::Auto;
    opts.pool = &pool;
    EXPECT_EQ(simulate(t, checkerboard(t, 1, 2), opts).termination, Termination::Cycle);
}

TEST(RunBackends, UnsupportedRuleBackendCombinationsFailLoudly) {
    // A runtime rule functor is opaque to the stencil engines: explicit
    // packed / active / bitplane requests must refuse with one actionable
    // message, never silently downgrade to the generic sweep.
    Torus t(Topology::ToroidalMesh, 6, 6);
    const ColorField f = checkerboard(t, 1, 2);
    const auto flip = [](Color own, const std::array<Color, grid::kDegree>& nbr) noexcept {
        return nbr[0] == nbr[1] ? nbr[0] : own;
    };
    for (const Backend backend : {Backend::Packed, Backend::Active, Backend::BitPlane}) {
        RunOptions opts;
        opts.backend = backend;
        try {
            simulate_rule(t, f, flip, opts);
            FAIL() << "backend " << backend_name(backend) << " accepted a runtime functor";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("cannot step rule"), std::string::npos)
                << e.what();
            EXPECT_NE(std::string(e.what()).find("generic"), std::string::npos) << e.what();
        }
    }
    // Auto and explicit Generic still run it.
    RunOptions opts;
    opts.backend = Backend::Auto;
    EXPECT_EQ(simulate_rule(t, f, flip, opts).termination, Termination::Cycle);
    // The registry-level capability query agrees with the dispatch: every
    // registered rule has a word kernel, so every backend is supported and
    // the error string is empty.
    for (const rules::RuleInfo* rule : rules::all_rules()) {
        EXPECT_TRUE(rule->bitplane) << rule->name;
        for (const Backend backend : kBackends) {
            EXPECT_TRUE(rules::backend_supports(backend, *rule))
                << rule->name << "/" << backend_name(backend);
            EXPECT_EQ(rules::backend_support_error(backend, *rule), "") << rule->name;
        }
    }
}

TEST(RunBackends, CycleDetectionRejectedForTimeVaryingRules) {
    // stop_on_quiescence = false declares a time-varying rule, under which
    // state repetition proves nothing: the runner must refuse the
    // combination instead of reporting spurious period-1 cycles.
    Torus t(Topology::ToroidalMesh, 6, 6);
    SyncEngine engine(t, checkerboard(t, 1, 2));
    RunOptions opts;
    opts.stop_on_quiescence = false;
    EXPECT_THROW(run_to_terminal(engine, opts), std::invalid_argument);
    opts.detect_cycles = false;
    opts.max_rounds = 4;
    EXPECT_EQ(run_to_terminal(engine, opts).termination, Termination::RoundLimit);
}

TEST(RunActive, CheckerboardLimitCycleThroughRunner) {
    // ActiveEngine terminal behaviour 1: the period-2 checkerboard flip,
    // previously only exercised on SyncEngine paths.
    Torus t(Topology::ToroidalMesh, 4, 4);
    RunOptions opts;
    opts.backend = Backend::Active;
    const RunResult result = simulate(t, checkerboard(t, 1, 2), opts);
    EXPECT_EQ(result.termination, Termination::Cycle);
    EXPECT_EQ(result.cycle_period, 2u);
    EXPECT_EQ(result.rounds, 2u);
}

TEST(RunActive, NonMonochromaticFixedPointThroughRunner) {
    // ActiveEngine terminal behaviour 2: runs that *evolve into* a
    // non-monochromatic fixed point (not just start on one). Scan fixed
    // random seeds for such trajectories via the reference backend, then
    // require the active backend to classify them identically.
    Xoshiro256 rng(0xf1e1d);
    int found = 0;
    for (int trial = 0; trial < 64 && found < 3; ++trial) {
        Torus t(Topology::ToroidalMesh, 8, 8);
        const ColorField f = random_field(t, 4, rng);
        RunOptions opts;
        opts.backend = Backend::Generic;
        const RunResult reference = simulate(t, f, opts);
        if (reference.termination != Termination::FixedPoint || reference.rounds == 0) continue;
        ++found;
        opts.backend = Backend::Active;
        const RunResult active = simulate(t, f, opts);
        EXPECT_EQ(active.termination, Termination::FixedPoint) << trial;
        EXPECT_EQ(active.rounds, reference.rounds) << trial;
        EXPECT_EQ(active.final_colors, reference.final_colors) << trial;
    }
    // The 8x8 4-color ensemble is rich in multi-round fixed points; if
    // this ever fires, loosen the scan instead of deleting the test.
    EXPECT_EQ(found, 3);
}

TEST(RunActive, RoundLimitCapThroughRunner) {
    // ActiveEngine terminal behaviour 3: the defensive cap.
    Torus t(Topology::ToroidalMesh, 4, 4);
    RunOptions opts;
    opts.backend = Backend::Active;
    opts.max_rounds = 3;
    opts.detect_cycles = false;
    const RunResult result = simulate(t, checkerboard(t, 1, 2), opts);
    EXPECT_EQ(result.termination, Termination::RoundLimit);
    EXPECT_EQ(result.rounds, 3u);
}

TEST(RunObservers, CensusSeriesTracksConvergence) {
    Torus t(Topology::ToroidalMesh, 9, 9);
    const Configuration cfg = build_minimum_dynamo(t);

    analysis::CensusSeries census;
    RunOptions opts;
    opts.target = cfg.k;
    opts.observers.push_back(&census);
    const RunResult result = simulate(t, cfg.field, opts);
    ASSERT_TRUE(result.reached_mono(cfg.k));

    // One sample per executed round plus the initial state; entropy decays
    // to exactly zero at the monochromatic configuration.
    ASSERT_EQ(census.samples().size(), result.rounds + 1);
    EXPECT_GT(census.samples().front().entropy_bits, 0.0);
    EXPECT_DOUBLE_EQ(census.samples().back().entropy_bits, 0.0);
    EXPECT_EQ(census.samples().back().dominant, cfg.k);
    EXPECT_EQ(census.samples().back().dominant_count, t.size());
}

TEST(RunObservers, FrameDumperWritesOneFramePerSampledRound) {
    const auto dir = std::filesystem::temp_directory_path() / "dynamo_test_frames";
    std::filesystem::remove_all(dir);

    Torus t(Topology::TorusCordalis, 8, 8);
    const Configuration cfg = build_minimum_dynamo(t);
    io::FrameDumper frames(t, dir.string(), /*every=*/1, /*scale=*/2);
    RunOptions opts;
    opts.observers.push_back(&frames);
    const RunResult result = simulate(t, cfg.field, opts);

    // every=1: initial state + every round, final already covered.
    EXPECT_EQ(frames.frames_written(), result.rounds + 1);
    std::size_t on_disk = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        on_disk += entry.path().extension() == ".ppm";
    }
    EXPECT_EQ(on_disk, frames.frames_written());
    std::filesystem::remove_all(dir);
}

TEST(RunObservers, RunnerClassComposesObservers) {
    Torus t(Topology::ToroidalMesh, 6, 6);
    const Configuration cfg = build_theorem2_configuration(t);

    analysis::CensusSeries census;
    Runner runner;
    runner.options().target = cfg.k;
    runner.attach(census);

    SyncEngine engine(t, cfg.field);
    const RunResult result = runner.run(engine);
    EXPECT_TRUE(result.reached_mono(cfg.k));
    EXPECT_EQ(census.samples().size(), result.rounds + 1);
    EXPECT_EQ(result.newly_k.size(), result.rounds + 1);
}

TEST(RunGraph, GraphEngineMatchesTorusUnderSharedRunner) {
    // The AtLeastTwo threshold on the torus-adapted graph is exactly the
    // SMP rule; the generic graph engine under the same Runner must
    // reproduce the torus result field for field.
    for (const Topology topo : kTopologies) {
        Torus t(topo, 7, 7);
        const Configuration cfg = build_minimum_dynamo(t);
        const RunResult reference = simulate(t, cfg.field);

        const graphx::Graph graph = graphx::from_torus(t);
        graphx::GraphEngine engine(graph, cfg.field, graphx::PluralityThreshold::AtLeastTwo);
        const RunResult result = run_to_terminal(engine);
        EXPECT_EQ(result.termination, reference.termination) << to_string(topo);
        EXPECT_EQ(result.rounds, reference.rounds) << to_string(topo);
        EXPECT_EQ(result.total_recolorings, reference.total_recolorings) << to_string(topo);
        EXPECT_EQ(result.final_colors, reference.final_colors) << to_string(topo);
    }
}

TEST(RunGraph, EveryRegisteredRuleMatchesPackedOnTorusAsGraph) {
    // The torus-as-graph parity smoke: every registry rule driven through
    // its run_graph entry (CSR frontier engine on the from_torus adjacency)
    // must reproduce Backend::Packed on the torus itself. Sound because
    // every shipped rule is slot-symmetric, so the CSR sorted neighbor
    // order vs the torus {Up,Down,Left,Right} order cannot change any
    // decision.
    Xoshiro256 rng(0x60d);
    for (const Topology topo : kTopologies) {
        Torus t(topo, 6, 7);
        const graphx::Graph graph = graphx::from_torus(t);
        for (const rules::RuleInfo* rule : rules::all_rules()) {
            const Color palette = rule->bicolor() ? 2 : 3;
            const ColorField f = random_field(t, palette, rng);
            RunOptions opts;
            opts.target = rule->bicolor() ? Color(2) : Color(1);
            opts.backend = Backend::Packed;
            const RunResult reference = rule->run(t, f, opts);
            const RunResult via_graph = rule->run_graph(graph, f, opts);
            expect_results_identical(reference, via_graph,
                                     std::string(rule->name) + "/" + to_string(topo));
        }
    }
    // Non-4-regular graphs are refused up front: ring_lattice(n, 1) is the
    // 2-regular cycle.
    const graphx::Graph cycle = graphx::ring_lattice(8, 1);
    EXPECT_THROW(rules::smp_rule().run_graph(cycle, ColorField(8, 1), RunOptions{}),
                 std::invalid_argument);
}

TEST(RunBatch, SubstreamsAreDeterministicAcrossSchedules) {
    const std::uint64_t seed = 0xba7c4;
    BatchRunner serial(nullptr);
    const auto a = serial.map_trials<std::uint64_t>(
        32, seed, [](std::size_t, Xoshiro256& rng) { return rng.next(); });

    ThreadPool pool(4);
    BatchRunner pooled(&pool);
    const auto b = pooled.map_trials<std::uint64_t>(
        32, seed, [](std::size_t, Xoshiro256& rng) { return rng.next(); });

    ASSERT_EQ(a, b);
    // Trial t's stream depends only on (seed, t), never on who ran it.
    for (std::size_t trial = 0; trial < a.size(); ++trial) {
        Xoshiro256 rng(substream_seed(seed, trial));
        EXPECT_EQ(a[trial], rng.next()) << trial;
    }
    // Distinct trials see distinct streams.
    EXPECT_NE(a[0], a[1]);
}

TEST(RunBatch, BatchedSimulationsMatchDirectRuns) {
    Torus t(Topology::ToroidalMesh, 7, 7);
    ThreadPool pool(3);
    BatchRunner batch(&pool);
    const std::uint64_t seed = 0xabcde;

    const auto rounds = batch.map_trials<std::uint32_t>(
        12, seed, [&](std::size_t, Xoshiro256& rng) {
            ColorField f(t.size());
            for (auto& c : f) c = static_cast<Color>(1 + rng.below(4));
            return simulate(t, f).rounds;
        });
    for (std::size_t trial = 0; trial < rounds.size(); ++trial) {
        Xoshiro256 rng(substream_seed(seed, trial));
        ColorField f(t.size());
        for (auto& c : f) c = static_cast<Color>(1 + rng.below(4));
        EXPECT_EQ(simulate(t, f).rounds, rounds[trial]) << trial;
    }
}

} // namespace
} // namespace dynamo
