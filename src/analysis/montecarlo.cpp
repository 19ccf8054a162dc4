#include "analysis/montecarlo.hpp"

#include <algorithm>
#include <span>
#include <string>

#include "core/run/batch.hpp"
#include "core/sim/lane_engine.hpp"
#include "rules/registry.hpp"

namespace dynamo::analysis {

namespace {

void check_coloring(Color k, Color num_colors, double density) {
    DYNAMO_REQUIRE(num_colors >= 2, "need at least two colors");
    DYNAMO_REQUIRE(k >= 1 && k <= num_colors, "target color outside palette");
    DYNAMO_REQUIRE(density >= 0.0 && density <= 1.0, "density outside [0, 1]");
}

/// random_coloring's draws, written to field[0, size).
void fill_random_coloring(Color* field, std::size_t size, Color k, Color num_colors,
                          double density, Xoshiro256& rng) {
    for (std::size_t v = 0; v < size; ++v) {
        if (rng.bernoulli(density)) {
            field[v] = k;
        } else {
            // Uniform over the palette minus k.
            Color c = static_cast<Color>(1 + rng.below(num_colors - 1));
            if (c >= k) c = static_cast<Color>(c + 1);
            field[v] = c;
        }
    }
}

} // namespace

ColorField random_coloring(std::size_t size, Color k, Color num_colors, double density,
                           Xoshiro256& rng) {
    check_coloring(k, num_colors, density);
    ColorField field(size);
    fill_random_coloring(field.data(), size, k, num_colors, density, rng);
    return field;
}

namespace {

/// Everything a trial depends on besides its index and the batch seed.
struct TrialSpec {
    const grid::Torus& torus;
    Color k;
    double density;
    Color num_colors;
    const rules::RuleInfo& rule;
    Backend backend;

    /// Backend::Auto batches whose palette the lane planes hold run on the
    /// lane engine; an explicit backend keeps the per-trial path it names.
    bool on_lanes() const noexcept {
        return backend == Backend::Auto && rule.run_lanes != nullptr &&
               num_colors <= sim::kLaneMaxColors;
    }
};

TrialSpec make_spec(const grid::Torus& torus, Color k, double density, Color num_colors,
                    const rules::RuleInfo* rule, Backend backend) {
    check_coloring(k, num_colors, density);
    if (rule != nullptr) {
        DYNAMO_REQUIRE(rule->admits_palette(num_colors),
                       std::string("palette size inadmissible for rule '") + rule->name + "'");
        const std::string error = rules::backend_support_error(backend, *rule);
        DYNAMO_REQUIRE(error.empty(), error);
    }
    // No rule means the SMP protocol, whose registry entry runs simulate().
    return {torus, k, density, num_colors, rule != nullptr ? *rule : rules::smp_rule(), backend};
}

/// The one trial path, shared by the fixed and adaptive points: the
/// outcomes of trials [lo, hi) of the batch seeded with `seed`, written to
/// out[0, hi - lo). Trial t colors the torus from its private substream
/// substream_seed(seed, t) and runs to termination - on the lane engine,
/// up to 64 trials per call, or one by one through the rule's scalar
/// entry point - so each outcome is the same however the range is cut.
void run_trials(const TrialSpec& spec, std::size_t lo, std::size_t hi, std::uint64_t seed,
                RunSummary* out) {
    const std::size_t size = spec.torus.size();
    if (!spec.on_lanes()) {
        ColorField initial(size);
        RunOptions opts;
        opts.backend = spec.backend;
        for (std::size_t t = lo; t < hi; ++t) {
            Xoshiro256 rng(substream_seed(seed, t));
            fill_random_coloring(initial.data(), size, spec.k, spec.num_colors, spec.density, rng);
            out[t - lo] = summarize(spec.rule.run(spec.torus, initial, opts), spec.k);
        }
        return;
    }
    std::vector<Color> fields(std::min(sim::kLanes, hi - lo) * size);
    for (std::size_t base = lo; base < hi; base += sim::kLanes) {
        const std::size_t lanes = std::min(sim::kLanes, hi - base);
        for (std::size_t i = 0; i < lanes; ++i) {
            Xoshiro256 rng(substream_seed(seed, base + i));
            fill_random_coloring(fields.data() + i * size, size, spec.k, spec.num_colors,
                                 spec.density, rng);
        }
        spec.rule.run_lanes(spec.torus, fields.data(), lanes, spec.k, out + (base - lo));
    }
}

/// run_trials across the pool, one contiguous block per worker.
void run_trials_pooled(const TrialSpec& spec, std::size_t lo, std::size_t hi,
                       std::uint64_t seed, ThreadPool* pool, RunSummary* out) {
    parallel_for_blocks(pool, hi - lo, 1, [&](std::size_t a, std::size_t b) {
        run_trials(spec, lo + a, lo + b, seed, out + a);
    });
}

bool reached_k_mono(const RunSummary& outcome, Color k) {
    return outcome.termination == Termination::Monochromatic && outcome.mono &&
           *outcome.mono == k;
}

/// Trial-order fold of outcomes into a DensityPoint, so the floating-point
/// sums are identical for every execution schedule.
class Tally {
  public:
    Tally(const grid::Torus& torus, double density) : size_(torus.size()) {
        point_.density = density;
    }

    void add(const RunSummary& outcome) {
        ++point_.trials;
        switch (outcome.termination) {
            case Termination::Monochromatic:
                // k-monochromatic iff every vertex holds k at termination.
                if (outcome.mono && outcome.final_k == size_) {
                    ++point_.k_mono;
                    rounds_sum_ += outcome.rounds;
                } else if (outcome.mono) {
                    ++point_.other_mono;
                }
                break;
            case Termination::Cycle: ++point_.cycles; break;
            case Termination::FixedPoint: ++point_.fixed_points; break;
            case Termination::RoundLimit: break;
        }
        k_fraction_sum_ +=
            static_cast<double>(outcome.final_k) / static_cast<double>(size_);
    }

    DensityPoint point() const {
        DensityPoint point = point_;
        point.mean_rounds_mono =
            point.k_mono > 0 ? rounds_sum_ / static_cast<double>(point.k_mono) : 0.0;
        point.mean_final_k_fraction =
            k_fraction_sum_ / static_cast<double>(point.trials ? point.trials : 1);
        return point;
    }

  private:
    std::size_t size_;
    DensityPoint point_;
    double rounds_sum_ = 0.0;
    double k_fraction_sum_ = 0.0;
};

/// Fixed-trial points fold their outcomes in slices of this many trials,
/// so memory stays bounded whatever trial count is requested.
constexpr std::size_t kFoldSlice = 4096;

} // namespace

DensityPoint run_density_point(const grid::Torus& torus, Color k, double density,
                               Color num_colors, std::size_t trials, std::uint64_t seed,
                               ThreadPool* pool, const rules::RuleInfo* rule, Backend backend) {
    const TrialSpec spec = make_spec(torus, k, density, num_colors, rule, backend);
    Tally tally(torus, density);
    std::vector<RunSummary> outcomes;
    for (std::size_t lo = 0; lo < trials; lo += kFoldSlice) {
        const std::size_t hi = std::min(trials, lo + kFoldSlice);
        outcomes.resize(hi - lo);
        run_trials_pooled(spec, lo, hi, seed, pool, outcomes.data());
        for (const RunSummary& outcome : outcomes) tally.add(outcome);
    }
    return tally.point();
}

AdaptiveDensityPoint run_density_point_adaptive(const grid::Torus& torus, Color k,
                                                double density, Color num_colors,
                                                std::uint64_t seed,
                                                const AdaptiveOptions& options,
                                                ThreadPool* pool, const rules::RuleInfo* rule,
                                                Backend backend) {
    const TrialSpec spec = make_spec(torus, k, density, num_colors, rule, backend);
    stats::SequentialOptions seq;
    seq.stopping = options.stopping;
    seq.max_trials = options.max_trials;
    seq.chunk = options.chunk;
    const stats::SequentialEstimator estimator(seq);
    // Every generated trial's outcome, grown chunk by chunk.
    std::vector<RunSummary> outcomes;
    const stats::SequentialResult result =
        estimator.run_chunks([&](std::size_t lo, std::size_t hi, std::span<double> values) {
            outcomes.resize(hi);
            run_trials_pooled(spec, lo, hi, seed, pool, outcomes.data() + lo);
            for (std::size_t t = lo; t < hi; ++t)
                values[t - lo] = reached_k_mono(outcomes[t], k) ? 1.0 : 0.0;
        });

    Tally tally(torus, density);
    for (std::size_t t = 0; t < result.trials; ++t) tally.add(outcomes[t]);
    AdaptiveDensityPoint adaptive;
    adaptive.point = tally.point();
    adaptive.half_width = result.half_width;
    adaptive.lower = result.lower;
    adaptive.upper = result.upper;
    adaptive.decided = result.decided;
    adaptive.converged = result.converged;
    adaptive.computed = result.computed;
    return adaptive;
}

std::vector<DensityPoint> run_density_sweep(const grid::Torus& torus, Color k,
                                            const std::vector<double>& densities,
                                            Color num_colors, std::size_t trials,
                                            std::uint64_t seed, ThreadPool* pool,
                                            const rules::RuleInfo* rule, Backend backend) {
    std::vector<DensityPoint> points;
    points.reserve(densities.size());
    for (std::size_t i = 0; i < densities.size(); ++i) {
        points.push_back(run_density_point(torus, k, densities[i], num_colors, trials,
                                           substream_seed(seed, i), pool, rule, backend));
    }
    return points;
}

} // namespace dynamo::analysis
