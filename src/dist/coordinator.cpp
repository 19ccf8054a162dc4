// dynamo/dist/coordinator.cpp
//
// See coordinator.hpp for the placement-independence and crash-safety
// contracts this implements.
#include "dist/coordinator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "dist/protocol.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"

namespace dynamo::dist {

namespace {

using scenario::CacheKey;
using scenario::CachedResult;
using service::HttpRequest;
using service::HttpResponse;
using util::Json;
using util::JsonObject;

HttpResponse json_response(int status, JsonObject body) {
    HttpResponse response;
    response.status = status;
    response.body = Json(std::move(body)).dump(0) + "\n";
    return response;
}

HttpResponse error_response(int status, const std::string& message) {
    JsonObject body;
    body.emplace_back("error", Json(message));
    return json_response(status, std::move(body));
}

} // namespace

CampaignCoordinator::CampaignCoordinator(scenario::Manifest manifest,
                                         std::string manifest_text,
                                         CoordinatorOptions options)
    : manifest_(std::move(manifest)),
      manifest_text_(std::move(manifest_text)),
      options_(std::move(options)),
      cache_(options_.cache_dir, options_.code_epoch),
      progress_(options_.progress) {
    const scenario::Scenario* scenario = scenario::find(manifest_.scenario);
    DYNAMO_REQUIRE(scenario != nullptr, "manifest scenario vanished from the registry");
    epoch_ = cache_.combined_epoch(scenario->epoch);

    // The ONE authoritative expansion: full manifest, global indices —
    // the same expansion every worker independently reproduces from the
    // verbatim manifest text, and the same one `dynamo campaign` uses.
    specs_ = scenario::expand(manifest_);
    fingerprint_ = scenario::campaign_fingerprint(manifest_.scenario, epoch_,
                                                  /*shard_index=*/0, /*shard_count=*/1,
                                                  specs_);

    outcome_.total_points = specs_.size();
    outcome_.shard_index = 0;
    outcome_.shard_count = 1;
    outcome_.points.reserve(specs_.size());
    slot_of_index_.resize(specs_.size(), 0);
    for (std::size_t slot = 0; slot < specs_.size(); ++slot) {
        scenario::CampaignPoint point;
        point.spec = specs_[slot];
        outcome_.points.push_back(std::move(point));
        slot_of_index_[specs_[slot].index] = slot;
    }

    if (!options_.checkpoint.empty()) {
        checkpoint_ = std::make_unique<scenario::CampaignCheckpoint>(
            options_.checkpoint, fingerprint_, /*shard_index=*/0, /*shard_count=*/1,
            specs_.size());
        outcome_.resumed = checkpoint_->resumed();
    }

    // Pass 1 (run_campaign's, verbatim semantics): serve what the cache
    // already holds — checkpointed points even under --force — and
    // queue only the genuine misses for leasing.
    std::vector<std::size_t> pending;
    for (scenario::CampaignPoint& point : outcome_.points) {
        const CacheKey key{manifest_.scenario, epoch_, point.spec.params};
        const std::uint64_t hash = scenario::cache_hash(key);
        const bool settled =
            checkpoint_ != nullptr && checkpoint_->is_settled(point.spec.index, hash);
        if (!options_.force || settled) {
            if (auto hit = cache_.lookup(key)) {
                point.result = std::move(*hit);
                point.from_cache = true;
                ++outcome_.cached;
                if (point.result.exit_code != 0) ++outcome_.failed;
                if (checkpoint_ != nullptr && point.result.exit_code == 0)
                    checkpoint_->mark_settled(point.spec.index, hash);
                progress_.emit(point.spec.index, "cached", point);
                continue;
            }
        }
        pending.push_back(point.spec.index);
    }

    LeaseTableOptions table_options;
    table_options.ttl_ms = options_.lease_ttl_ms;
    table_options.batch = options_.batch;
    table_ = std::make_unique<LeaseTable>(std::move(pending), table_options);
}

HttpResponse CampaignCoordinator::handle(const HttpRequest& request, std::uint64_t now_ms) {
    const std::lock_guard<std::mutex> lock(mutex_);
    latest_now_ms_ = std::max(latest_now_ms_, now_ms);
    try {
        return handle_locked(request, now_ms);
    } catch (const std::invalid_argument& e) {
        return error_response(400, e.what());
    } catch (const std::exception& e) {
        return error_response(500, e.what());
    }
}

HttpResponse CampaignCoordinator::handle_locked(const HttpRequest& request,
                                                std::uint64_t now_ms) {
    if (request.method == "GET" && request.target == "/healthz") {
        JsonObject body;
        body.emplace_back("status", Json("ok"));
        body.emplace_back("role", Json("coordinator"));
        body.emplace_back("fingerprint", Json(hex16(fingerprint_)));
        return json_response(200, std::move(body));
    }
    if (request.method == "GET" && request.target == "/manifest") {
        JsonObject body;
        body.emplace_back("fingerprint", Json(hex16(fingerprint_)));
        body.emplace_back("points", Json(static_cast<std::uint64_t>(specs_.size())));
        body.emplace_back("ttl_ms", Json(options_.lease_ttl_ms));
        body.emplace_back("manifest", Json(manifest_text_));
        return json_response(200, std::move(body));
    }
    if (request.method == "GET" && request.target == "/status") return status(now_ms);
    if (request.method == "POST" && request.target == "/lease")
        return lease(request.body, now_ms);
    if (request.method == "POST" && request.target == "/heartbeat")
        return heartbeat(request.body, now_ms);
    if (request.method == "POST" && request.target == "/complete")
        return completion(request.body, now_ms);
    return error_response(404, "unknown endpoint: " + request.method + " " + request.target);
}

HttpResponse CampaignCoordinator::status(std::uint64_t now_ms) {
    table_->expire(now_ms);  // fresh counters for observers
    JsonObject body;
    body.emplace_back("fingerprint", Json(hex16(fingerprint_)));
    body.emplace_back("points", Json(static_cast<std::uint64_t>(specs_.size())));
    body.emplace_back("cached", Json(static_cast<std::uint64_t>(outcome_.cached)));
    body.emplace_back("computed", Json(static_cast<std::uint64_t>(outcome_.computed)));
    body.emplace_back("failed", Json(static_cast<std::uint64_t>(outcome_.failed)));
    body.emplace_back("queued", Json(static_cast<std::uint64_t>(table_->queued())));
    body.emplace_back("leased", Json(static_cast<std::uint64_t>(table_->leased())));
    body.emplace_back("leases_granted",
                      Json(static_cast<std::uint64_t>(table_->leases_granted())));
    body.emplace_back("leases_expired",
                      Json(static_cast<std::uint64_t>(table_->leases_expired())));
    body.emplace_back("duplicates", Json(static_cast<std::uint64_t>(table_->duplicates())));
    body.emplace_back("conflicts", Json(static_cast<std::uint64_t>(table_->conflicts())));
    body.emplace_back("done", Json(table_->all_settled()));
    return json_response(200, std::move(body));
}

HttpResponse CampaignCoordinator::lease(const std::string& body, std::uint64_t now_ms) {
    const LeaseRequest request = parse_lease_request(body);
    LeaseGrant grant;
    if (table_->all_settled()) {
        grant.done = true;
    } else {
        LeaseTable::Grant g = table_->acquire(request.worker, request.capacity, now_ms);
        if (g.indices.empty()) {
            // Nothing grantable: either everything settled during the
            // acquire's expiry sweep, or all remaining work is out on
            // live leases — the worker polls again shortly.
            grant.done = table_->all_settled();
            grant.wait = !grant.done;
        } else {
            grant.lease_id = g.lease_id;
            grant.indices = std::move(g.indices);
            grant.ttl_ms = options_.lease_ttl_ms;
        }
    }
    saw_worker(request.worker, now_ms, grant.done);
    HttpResponse response;
    response.body = render_lease_grant(grant) + "\n";
    return response;
}

HttpResponse CampaignCoordinator::heartbeat(const std::string& body, std::uint64_t now_ms) {
    const HeartbeatRequest request = parse_heartbeat_request(body);
    HeartbeatReply reply;
    reply.ok = table_->heartbeat(request.lease_id, now_ms);
    reply.done = table_->all_settled();
    saw_worker(request.worker, now_ms, reply.done);
    // 410 Gone tells the worker its lease expired and was requeued; its
    // in-flight batch should still be completed (first valid wins)
    // unless the reply also says done.
    HttpResponse response;
    response.status = reply.ok ? 200 : 410;
    response.body = render_heartbeat_reply(reply) + "\n";
    return response;
}

HttpResponse CampaignCoordinator::completion(const std::string& body, std::uint64_t now_ms) {
    const CompleteRequest request = parse_complete_request(body);
    if (request.fingerprint != hex16(fingerprint_)) {
        return error_response(409, "campaign fingerprint mismatch: coordinator has " +
                                       hex16(fingerprint_) + ", completion carries " +
                                       request.fingerprint);
    }
    CompleteReply reply;
    for (const PointResult& result : request.results) {
        if (result.index >= specs_.size())
            return error_response(400, "completion index " + std::to_string(result.index) +
                                           " out of range");
        const std::uint64_t hash = result_hash(result);
        switch (table_->complete(result.index, hash, now_ms)) {
            case LeaseTable::Completion::Accepted: {
                CachedResult settled;
                settled.exit_code = result.exit_code;
                settled.metrics = result.metrics;
                settled.report = result.report;
                settle_accepted(result.index, std::move(settled));
                ++reply.accepted;
                break;
            }
            case LeaseTable::Completion::Duplicate:
                ++reply.duplicates;
                break;
            case LeaseTable::Completion::Conflict:
                ++reply.conflicts;
                break;
            case LeaseTable::Completion::Unknown:
                return error_response(400, "completion for index the campaign does not own: " +
                                               std::to_string(result.index));
        }
    }
    reply.done = table_->all_settled();
    saw_worker(request.worker, now_ms, reply.done);
    HttpResponse response;
    response.body = render_complete_reply(reply) + "\n";
    return response;
}

void CampaignCoordinator::settle_accepted(std::size_t spec_index, CachedResult result) {
    scenario::CampaignPoint& point = outcome_.points[slot_of_index_[spec_index]];
    point.result = std::move(result);
    point.from_cache = false;
    ++outcome_.computed;
    if (point.result.exit_code != 0) ++outcome_.failed;
    // The settle-time persistence contract (scenario/campaign.hpp):
    // successful points are cached + checkpointed the moment they land,
    // so a coordinator killed now loses nothing; failures are neither
    // cached nor checkpointed, so a re-run retries them.
    if (point.result.exit_code == 0) {
        const CacheKey key{manifest_.scenario, epoch_, point.spec.params};
        cache_.store(key, point.result);
        if (checkpoint_ != nullptr)
            checkpoint_->mark_settled(point.spec.index, scenario::cache_hash(key));
    }
    progress_.emit(point.spec.index, point.result.exit_code == 0 ? "computed" : "failed",
                   point);
}

void CampaignCoordinator::saw_worker(const std::string& name, std::uint64_t now_ms,
                                     bool done) {
    SeenWorker& seen = workers_[name];
    seen.last_seen_ms = std::max(seen.last_seen_ms, now_ms);
    seen.told_done = seen.told_done || done;
}

bool CampaignCoordinator::complete_locked(std::uint64_t now_ms) const {
    if (!table_->all_settled()) return false;
    for (const auto& [name, seen] : workers_)
        if (!seen.told_done && now_ms < seen.last_seen_ms + options_.lease_ttl_ms)
            return false;  // may still be polling: let it hear "done"
    return true;
}

bool CampaignCoordinator::settled() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return table_->all_settled();
}

bool CampaignCoordinator::complete(std::uint64_t now_ms) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return complete_locked(now_ms);
}

bool CampaignCoordinator::complete() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return complete_locked(latest_now_ms_);
}

std::size_t CampaignCoordinator::conflicts() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return table_->conflicts();
}

std::size_t CampaignCoordinator::settled_points() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return table_->settled() + outcome_.cached;
}

std::string CampaignCoordinator::fingerprint_hex() const { return hex16(fingerprint_); }

std::string CampaignCoordinator::summary() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::string line = outcome_.summary(manifest_);
    line += " | fabric: " + std::to_string(table_->leases_granted()) + " leases, " +
            std::to_string(table_->leases_expired()) + " expired, " +
            std::to_string(table_->duplicates()) + " duplicate, " +
            std::to_string(table_->conflicts()) + " conflicting completions";
    return line;
}

} // namespace dynamo::dist
