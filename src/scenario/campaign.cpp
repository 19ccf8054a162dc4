// dynamo/scenario/campaign.cpp
//
// Cache-or-compute execution of expanded manifest points (see campaign.hpp
// for the determinism, crash-safety, and sharding contracts).
#include "scenario/campaign.hpp"

#include <limits>
#include <memory>
#include <ostream>
#include <sstream>

#include "io/jsonl.hpp"
#include "scenario/checkpoint.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"

namespace dynamo::scenario {

namespace {

using util::Json;
using util::JsonArray;
using util::JsonObject;

} // namespace

CachedResult compute_campaign_point(const Scenario& scenario, const PointSpec& point) {
    CachedResult result;
    std::ostringstream out;
    try {
        const CliArgs args(point.params);
        Context ctx{args, out, {}};
        result.exit_code = run(scenario, ctx);
        result.metrics = std::move(ctx.metrics);
    } catch (const std::exception& e) {
        out << "point failed: " << e.what() << "\n";
        result.exit_code = 2;
    }
    result.report = out.str();
    return result;
}

void CampaignProgressEmitter::emit(std::size_t index, const char* status,
                                   const CampaignPoint& point) {
    if (!writer_.enabled()) return;
    JsonObject params;
    for (const auto& [k, v] : point.spec.params) params.emplace_back(k, Json(v));
    JsonObject metrics;
    for (const auto& [k, v] : point.result.metrics) metrics.emplace_back(k, Json(v));
    JsonObject line;
    line.emplace_back("index", Json(static_cast<std::uint64_t>(index)));
    line.emplace_back("status", Json(std::string(status)));
    line.emplace_back("exit_code", Json(static_cast<std::int64_t>(point.result.exit_code)));
    line.emplace_back("params", Json(std::move(params)));
    line.emplace_back("metrics", Json(std::move(metrics)));
    writer_.write(Json(std::move(line)));
}

std::uint64_t campaign_fingerprint(const std::string& scenario_name, int epoch,
                                   unsigned shard_index, unsigned shard_count,
                                   const std::vector<PointSpec>& specs) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](const std::string& s) {
        for (const unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
        h ^= 0xff;  // separator: "ab" + "c" never collides with "a" + "bc"
        h *= 0x100000001b3ULL;
    };
    mix(scenario_name);
    mix(std::to_string(epoch));
    mix(std::to_string(shard_index));
    mix(std::to_string(shard_count));
    for (const PointSpec& spec : specs) {
        mix(canonical_key_string(CacheKey{scenario_name, epoch, spec.params}));
    }
    return h;
}

CampaignOutcome run_campaign(const Manifest& manifest, const CampaignOptions& options) {
    const Scenario* scenario = find(manifest.scenario);
    DYNAMO_REQUIRE(scenario != nullptr, "manifest scenario vanished from the registry");
    DYNAMO_REQUIRE(options.shard_count >= 1, "shard_count must be at least 1");
    DYNAMO_REQUIRE(options.shard_index < options.shard_count,
                   "shard_index " + std::to_string(options.shard_index) +
                       " is out of range for shard_count " +
                       std::to_string(options.shard_count));
    const ResultCache cache(options.cache_dir, options.code_epoch);
    const int epoch = cache.combined_epoch(scenario->epoch);

    // Expansion is ALWAYS that of the full manifest: global indices (and
    // with them the injected RNG substreams) must not depend on the shard
    // split, or shard results would diverge from an unsharded run.
    const std::vector<PointSpec> specs = expand(manifest);
    CampaignOutcome outcome;
    outcome.total_points = specs.size();
    outcome.shard_index = options.shard_index;
    outcome.shard_count = options.shard_count;
    for (const PointSpec& spec : specs) {
        if (spec.index % options.shard_count != options.shard_index) continue;
        CampaignPoint point;
        point.spec = spec;
        outcome.points.push_back(std::move(point));
    }

    std::unique_ptr<CampaignCheckpoint> checkpoint;
    if (!options.checkpoint.empty()) {
        checkpoint = std::make_unique<CampaignCheckpoint>(
            options.checkpoint,
            campaign_fingerprint(manifest.scenario, epoch, options.shard_index,
                                 options.shard_count, specs),
            options.shard_index, options.shard_count, specs.size());
        outcome.resumed = checkpoint->resumed();
    }

    CampaignProgressEmitter progress(options.progress);

    // Pass 1 (serial): satisfy points from the cache, collect the misses.
    // A checkpointed point is served from the cache even under --force —
    // resume means "keep the work already banked". Settled cache hits the
    // checkpoint does not know yet are recorded, so a later --force
    // resume keeps them too.
    std::vector<std::size_t> missing;  // slots into outcome.points
    for (std::size_t slot = 0; slot < outcome.points.size(); ++slot) {
        CampaignPoint& point = outcome.points[slot];
        const CacheKey key{manifest.scenario, epoch, point.spec.params};
        const std::uint64_t hash = cache_hash(key);
        const bool settled =
            checkpoint != nullptr && checkpoint->is_settled(point.spec.index, hash);
        if (!options.force || settled) {
            if (auto hit = cache.lookup(key)) {
                point.result = std::move(*hit);
                point.from_cache = true;
                if (checkpoint != nullptr && point.result.exit_code == 0)
                    checkpoint->mark_settled(point.spec.index, hash);
                progress.emit(point.spec.index, "cached", point);
                continue;
            }
        }
        missing.push_back(slot);
    }

    // Pass 2: compute the misses across the pool, one job per point in
    // index order: point costs differ by orders of magnitude, so workers
    // pull the next point as they free up instead of owning a fixed
    // contiguous block. Each point writes only its own slot. Every
    // SUCCESSFUL point is stored (and checkpointed) the moment it settles,
    // inside this pass — persisting used to wait for a serial pass after
    // the pool drained, so a campaign killed at point k of n lost all k
    // computed results; now it warm-starts with exactly k cache hits.
    // Failed points are not cached — a re-run retries them instead of
    // replaying the error. The cache store is concurrency-safe (unique
    // per-writer temp names), so workers need no store mutex.
    DYNAMO_REQUIRE(missing.size() <= std::numeric_limits<unsigned>::max(),
                   "too many campaign points for one pass");
    const auto jobs = static_cast<unsigned>(missing.size());
    if (jobs > 0) {
        parallel_for_shards(options.pool, jobs, [&](unsigned j) {
            CampaignPoint& point = outcome.points[missing[j]];
            point.result = compute_campaign_point(*scenario, point.spec);
            if (point.result.exit_code == 0) {
                const CacheKey key{manifest.scenario, epoch, point.spec.params};
                cache.store(key, point.result);
                if (checkpoint != nullptr)
                    checkpoint->mark_settled(point.spec.index, cache_hash(key));
            }
            progress.emit(point.spec.index,
                          point.result.exit_code == 0 ? "computed" : "failed", point);
        });
    }

    // Pass 3 (serial): tally.
    for (const CampaignPoint& point : outcome.points) {
        if (point.from_cache) {
            ++outcome.cached;
        } else {
            ++outcome.computed;
        }
        if (point.result.exit_code != 0) ++outcome.failed;
    }
    return outcome;
}

std::string render_campaign_json(const CampaignHeader& header,
                                 const std::vector<CampaignPoint>& points,
                                 unsigned shard_index, unsigned shard_count,
                                 std::size_t total_points) {
    const bool sharded = shard_count > 1;
    JsonObject root;
    root.reserve(8);  // also sidesteps a GCC-12 -Warray-bounds false positive
    root.emplace_back("campaign", Json(header.name));
    root.emplace_back("scenario", Json(header.scenario));
    if (!header.description.empty())
        root.emplace_back("description", Json(header.description));
    root.emplace_back("repetitions", Json(static_cast<std::uint64_t>(header.repetitions)));
    root.emplace_back("seed", Json(static_cast<std::uint64_t>(header.seed)));
    if (sharded) {
        JsonObject shard;
        shard.emplace_back("index", Json(static_cast<std::uint64_t>(shard_index)));
        shard.emplace_back("count", Json(static_cast<std::uint64_t>(shard_count)));
        shard.emplace_back("total_points", Json(static_cast<std::uint64_t>(total_points)));
        root.emplace_back("shard", Json(std::move(shard)));
    }
    JsonArray point_records;
    point_records.reserve(points.size());
    for (const CampaignPoint& point : points) {
        JsonObject params;
        for (const auto& [k, v] : point.spec.params) params.emplace_back(k, Json(v));
        JsonObject metrics;
        for (const auto& [k, v] : point.result.metrics) metrics.emplace_back(k, Json(v));
        JsonObject record;
        // The global expansion index only appears in shard artifacts — it
        // is what the merge validates the interleave against; the
        // unsharded artifact keeps its classic (pre-shard) shape.
        if (sharded)
            record.emplace_back("index", Json(static_cast<std::uint64_t>(point.spec.index)));
        record.emplace_back("params", Json(std::move(params)));
        record.emplace_back("metrics", Json(std::move(metrics)));
        record.emplace_back("exit_code", Json(static_cast<std::int64_t>(point.result.exit_code)));
        // Reports stay out of the campaign JSON (they live in the cache) —
        // except for failures, whose report carries the error message.
        if (point.result.exit_code != 0)
            record.emplace_back("report", Json(point.result.report));
        point_records.emplace_back(Json(std::move(record)));
    }
    root.emplace_back("points", Json(std::move(point_records)));
    return Json(std::move(root)).dump(2) + "\n";
}

std::string CampaignOutcome::to_json(const Manifest& manifest) const {
    const CampaignHeader header{manifest.name, manifest.scenario, manifest.description,
                                manifest.repetitions, manifest.seed};
    return render_campaign_json(header, points, shard_index, shard_count, total_points);
}

std::string CampaignOutcome::summary(const Manifest& manifest) const {
    std::ostringstream os;
    os << "campaign " << manifest.name;
    if (shard_count > 1) os << " [shard " << shard_index << "/" << shard_count << "]";
    os << ": " << points.size();
    if (shard_count > 1) os << "/" << total_points;
    os << " points, " << computed << " computed, " << cached << " cached, " << failed
       << " failed";
    if (resumed > 0) os << " (" << resumed << " checkpointed)";
    return os.str();
}

} // namespace dynamo::scenario
