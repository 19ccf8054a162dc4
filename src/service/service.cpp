// dynamo/service/service.cpp
//
// Campaign service implementation (model and endpoint table in
// service.hpp).
#include "service/service.hpp"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <sstream>

#include "util/json.hpp"

namespace dynamo::service {

namespace {

using scenario::CampaignOptions;
using scenario::Manifest;
using util::Json;
using util::JsonArray;
using util::JsonObject;

HttpResponse json_response(int status, JsonObject body) {
    return {status, "application/json", Json(std::move(body)).dump(0) + "\n"};
}

HttpResponse error_response(int status, const std::string& message) {
    JsonObject body;
    body.emplace_back("error", Json(message));
    return json_response(status, std::move(body));
}

const char* status_name(int job_status) {
    switch (job_status) {
        case 0: return "queued";
        case 1: return "running";
        case 2: return "done";
        default: return "failed";
    }
}

/// Splits "/campaigns/<id>[/<tail>]" -> (id, tail). False when the
/// target is not of that shape or the id is not a number.
bool parse_job_target(const std::string& target, std::uint64_t& id, std::string& tail) {
    const std::string prefix = "/campaigns/";
    if (target.rfind(prefix, 0) != 0) return false;
    const std::string rest = target.substr(prefix.size());
    const std::size_t slash = rest.find('/');
    const std::string id_text = rest.substr(0, slash);
    // Digits only, and no wrap: an id past 2^64-1 names no campaign.
    const char* end = id_text.data() + id_text.size();
    const auto [stop, error] = std::from_chars(id_text.data(), end, id);
    if (error != std::errc() || stop != end) return false;
    tail = slash == std::string::npos ? std::string() : rest.substr(slash);
    return true;
}

} // namespace

std::string CampaignService::ProgressBuffer::snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return data_;
}

CampaignService::ProgressBuffer::int_type
CampaignService::ProgressBuffer::overflow(int_type ch) {
    if (ch == traits_type::eof()) return traits_type::not_eof(ch);
    const std::lock_guard<std::mutex> lock(mutex_);
    data_.push_back(static_cast<char>(ch));
    return ch;
}

std::streamsize CampaignService::ProgressBuffer::xsputn(const char* s, std::streamsize n) {
    const std::lock_guard<std::mutex> lock(mutex_);
    data_.append(s, static_cast<std::size_t>(n));
    return n;
}

CampaignService::CampaignService(ServiceOptions options) : options_(std::move(options)) {
    runner_ = std::thread([this] { runner_loop(); });
}

CampaignService::~CampaignService() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    runner_.join();
}

bool CampaignService::idle() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!queue_.empty()) return false;
    for (const auto& job : jobs_) {
        if (job->status == JobStatus::kQueued || job->status == JobStatus::kRunning)
            return false;
    }
    return true;
}

HttpResponse CampaignService::handle(const HttpRequest& request) {
    // Routing ignores any query string: the API is purely path-shaped.
    const std::size_t query = request.target.find('?');
    const std::string target =
        query == std::string::npos ? request.target : request.target.substr(0, query);

    if (target == "/healthz") {
        if (request.method != "GET") return error_response(405, "use GET");
        JsonObject body;
        body.emplace_back("status", Json("ok"));
        body.emplace_back("cache_dir", Json(options_.cache_dir));
        return json_response(200, std::move(body));
    }

    if (target == "/campaigns") {
        if (request.method == "POST") return submit(request.body);
        if (request.method == "GET") return list_jobs();
        return error_response(405, "use GET or POST");
    }

    std::uint64_t id = 0;
    std::string tail;
    if (parse_job_target(target, id, tail)) {
        if (request.method != "GET") return error_response(405, "use GET");
        if (tail.empty()) return job_status(id);
        if (tail == "/progress") return job_progress(id);
        if (tail == "/report") return job_report(id);
        return error_response(404, "unknown campaign endpoint '" + tail + "'");
    }

    return error_response(404, "no such endpoint '" + target + "'");
}

HttpResponse CampaignService::submit(const std::string& body) {
    Manifest manifest;
    std::size_t points = 0;
    try {
        manifest = scenario::parse_manifest(body, "request body");
        points = scenario::expand(manifest).size();
    } catch (const std::exception& e) {
        return error_response(400, e.what());
    }

    Job* job = nullptr;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        auto owned = std::make_unique<Job>();
        owned->id = jobs_.size() + 1;  // ids are 1-based and dense
        owned->manifest = std::move(manifest);
        owned->points = points;
        job = owned.get();
        jobs_.push_back(std::move(owned));
        queue_.push_back(job);
    }
    wake_.notify_all();

    JsonObject response;
    response.emplace_back("id", Json(job->id));
    response.emplace_back("status", Json("queued"));
    response.emplace_back("points", Json(static_cast<std::uint64_t>(points)));
    return json_response(202, std::move(response));
}

HttpResponse CampaignService::list_jobs() const {
    JsonArray entries;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        entries.reserve(jobs_.size());
        for (const auto& job : jobs_) {
            JsonObject entry;
            entry.emplace_back("id", Json(job->id));
            entry.emplace_back("campaign", Json(job->manifest.name));
            entry.emplace_back("scenario", Json(job->manifest.scenario));
            entry.emplace_back("status", Json(status_name(static_cast<int>(job->status))));
            entry.emplace_back("points", Json(static_cast<std::uint64_t>(job->points)));
            entries.emplace_back(Json(std::move(entry)));
        }
    }
    JsonObject body;
    body.emplace_back("campaigns", Json(std::move(entries)));
    return json_response(200, std::move(body));
}

CampaignService::Job* CampaignService::find_job(std::uint64_t id) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (id == 0 || id > jobs_.size()) return nullptr;
    return jobs_[id - 1].get();
}

HttpResponse CampaignService::job_status(std::uint64_t id) const {
    Job* job = find_job(id);
    if (job == nullptr) return error_response(404, "no campaign " + std::to_string(id));

    JobStatus status;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        status = job->status;
    }
    // A progress line lands per settled point, so the line count IS the
    // live settled count — no extra bookkeeping channel needed.
    const std::string progress = job->progress.snapshot();
    const std::size_t settled =
        static_cast<std::size_t>(std::count(progress.begin(), progress.end(), '\n'));

    JsonObject body;
    body.emplace_back("id", Json(job->id));
    body.emplace_back("campaign", Json(job->manifest.name));
    body.emplace_back("scenario", Json(job->manifest.scenario));
    body.emplace_back("status", Json(status_name(static_cast<int>(status))));
    body.emplace_back("points", Json(static_cast<std::uint64_t>(job->points)));
    body.emplace_back("settled", Json(static_cast<std::uint64_t>(settled)));
    if (status == JobStatus::kDone) {
        body.emplace_back("summary", Json(job->summary));
        body.emplace_back("computed",
                          Json(static_cast<std::uint64_t>(job->outcome.computed)));
        body.emplace_back("cached", Json(static_cast<std::uint64_t>(job->outcome.cached)));
        body.emplace_back("failed", Json(static_cast<std::uint64_t>(job->outcome.failed)));
    }
    if (status == JobStatus::kFailed) body.emplace_back("error", Json(job->error));
    return json_response(200, std::move(body));
}

HttpResponse CampaignService::job_progress(std::uint64_t id) const {
    Job* job = find_job(id);
    if (job == nullptr) return error_response(404, "no campaign " + std::to_string(id));
    return {200, "application/x-ndjson", job->progress.snapshot()};
}

HttpResponse CampaignService::job_report(std::uint64_t id) const {
    Job* job = find_job(id);
    if (job == nullptr) return error_response(404, "no campaign " + std::to_string(id));
    JobStatus status;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        status = job->status;
    }
    if (status == JobStatus::kFailed) return error_response(409, job->error);
    if (status != JobStatus::kDone)
        return error_response(409, "campaign " + std::to_string(id) + " is " +
                                       status_name(static_cast<int>(status)) +
                                       "; poll /campaigns/" + std::to_string(id) +
                                       " until done");
    return {200, "application/json", job->report};
}

void CampaignService::runner_loop() {
    for (;;) {
        Job* job = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (stopping_) return;  // queued-but-unrun jobs are abandoned
            job = queue_.front();
            queue_.pop_front();
            job->status = JobStatus::kRunning;
        }

        std::ostream progress_stream(&job->progress);
        CampaignOptions options;
        options.cache_dir = options_.cache_dir;
        options.pool = options_.pool;
        options.progress = &progress_stream;
        try {
            scenario::CampaignOutcome outcome = scenario::run_campaign(job->manifest, options);
            const std::string report = outcome.to_json(job->manifest);
            const std::string summary = outcome.summary(job->manifest);
            const std::lock_guard<std::mutex> lock(mutex_);
            job->outcome = std::move(outcome);
            job->report = report;
            job->summary = summary;
            job->status = JobStatus::kDone;
        } catch (const std::exception& e) {
            const std::lock_guard<std::mutex> lock(mutex_);
            job->error = e.what();
            job->status = JobStatus::kFailed;
        }
    }
}

} // namespace dynamo::service
