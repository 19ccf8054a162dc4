// fabric-many: an in-process CampaignCoordinator behind HttpServer with 2
// WorkerLoop threads (fixed names, no pool, the `dynamo work` defaults)
// over real loopback HTTP, on several hundred light mc_density_point
// points of a few milliseconds each. The opposite of atlas-cold: per-point
// lease, completion, cache store and checkpoint append dominate, and once
// the coordinator closes, the workers' backoff decides when they exit.
#include <atomic>
#include <map>
#include <mutex>
#include <thread>

#include "dist/coordinator.hpp"
#include "dist/http_client.hpp"
#include "dist/worker.hpp"
#include "scenario/campaign.hpp"
#include "service/http.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using namespace dynamo;
using dynamo::util::Json;

constexpr int kHotPerPass = 100;  ///< warm coordinator restarts per pass
/// Trials per 8x8 point: a few milliseconds of work each.
constexpr std::uint64_t kTrialsPerPoint = 200;
const char* const kWorkerNames[] = {"bench-w1", "bench-w2"};

struct Setup {
    std::string text;
    scenario::Manifest manifest;
    std::uint64_t trials = 0;  ///< Monte-Carlo trials over all points
};

std::uint64_t steady_ms() {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                          std::chrono::steady_clock::now().time_since_epoch())
                                          .count());
}

/// Client RPC spans open right now, by "worker target", so the
/// coordinator's handler span can attach to the request that caused it.
class OpenRpcs {
  public:
    void open(const std::string& key, trace::Link link) {
        const std::lock_guard<std::mutex> lock(mutex_);
        open_[key] = link;
    }
    void close(const std::string& key) {
        const std::lock_guard<std::mutex> lock(mutex_);
        open_.erase(key);
    }
    trace::Link find(const service::HttpRequest& request) const {
        std::string worker;
        try {
            if (const Json* w = Json::parse(request.body).find("worker")) worker = w->as_string();
        } catch (const std::exception&) {
            return {};  // GET /manifest carries no body
        }
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = open_.find(worker + " " + request.target);
        return it == open_.end() ? trace::Link{} : it->second;
    }

  private:
    mutable std::mutex mutex_;
    std::map<std::string, trace::Link> open_;
};

const char* rpc_span_name(const std::string& target) {
    if (target == "/manifest") return "dist.rpc.manifest";
    if (target == "/lease") return "dist.rpc.lease";
    if (target == "/heartbeat") return "dist.rpc.heartbeat";
    return "dist.rpc.complete";
}

struct PassResult {
    double wall = 0.0;      ///< launch until the last worker exited
    double artifact = 0.0;  ///< launch until the artifact was rendered
    double drain = 0.0;     ///< coordinator stop until the last worker exited
    double cpu = 0.0;
    std::string artifact_text;
    std::string dir;
    std::string checkpoint;
    std::size_t requests = 0;
    std::size_t conflicts = 0;
    std::size_t retries = 0;
    std::size_t unclean_exits = 0;
    std::uint64_t cached = 0;
    std::uint64_t computed = 0;
    std::string status_body;  ///< GET /status after completion
    double idle_s = 0.0;
};

PassResult fabric_pass(const Config& config, const Setup& setup, Outcome& out) {
    PassResult r;
    r.dir = fresh_dir(config, "fabric-cache");
    r.checkpoint = r.dir + "/ledger.jsonl";
    OpenRpcs rpcs;
    std::atomic<double> stopped_at{0.0};
    std::atomic<std::size_t> requests{0};
    std::mutex mutex;  // guards r.idle_s and r.retries
    double last_exit = 0.0;

    const double c0 = cpu_s();
    const double t0 = now_s();
    dist::CoordinatorOptions options;
    options.cache_dir = r.dir;
    options.checkpoint = r.checkpoint;
    dist::CampaignCoordinator coordinator(setup.manifest, setup.text, options);
    service::HttpServer server(0);
    std::thread loop([&] {
        server.serve_forever([&](const service::HttpRequest& request) {
            const trace::Span span("coordinator.handle", trace::Layer::Dist,
                                   trace::enabled() ? rpcs.find(request) : trace::Link{});
            ++requests;
            service::HttpResponse response = coordinator.handle(request, steady_ms());
            if (coordinator.complete() && stopped_at.load() == 0.0) {
                stopped_at = now_s();
                server.stop();  // after routing: the last completer gets its reply
            }
            return response;
        });
    });
    const dist::Endpoint endpoint{"127.0.0.1", server.port()};

    std::vector<std::thread> workers;
    for (const char* name : kWorkerNames) {
        workers.emplace_back([&, name] {
            const trace::Span lane("worker.run", trace::Layer::Scenario, trace::Span::Kind::Lane);
            dist::WorkerOptions wo;  // `dynamo work` defaults, no pool
            wo.name = name;
            for (const unsigned char c : wo.name)  // the CLI's per-name jitter seed
                wo.backoff.jitter_seed = wo.backoff.jitter_seed * 0x100000001b3ULL ^ c;
            double idle = 0.0;
            dist::WorkerLoop worker(
                [&, name](const std::string& method, const std::string& target,
                          const std::string& body) {
                    const trace::Span span(rpc_span_name(target), trace::Layer::Http);
                    const std::string key = std::string(name) + " " + target;
                    if (span.link().id != 0) rpcs.open(key, span.link());
                    auto response = dist::http_request(endpoint, method, target, body);
                    if (span.link().id != 0) rpcs.close(key);
                    return response;
                },
                wo,
                [&](std::uint64_t ms) {
                    const trace::Span span("worker.idle", trace::Layer::Dist);
                    const double s0 = now_s();
                    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
                    idle += now_s() - s0;
                });
            const dist::WorkerExit exit = worker.run();
            const std::lock_guard<std::mutex> lock(mutex);
            last_exit = std::max(last_exit, now_s());
            r.idle_s += idle;
            r.retries += worker.retries();
            if (!dist::worker_exit_clean(exit)) ++r.unclean_exits;
        });
    }
    loop.join();
    r.artifact_text = coordinator.artifact();
    r.artifact = now_s() - t0;
    for (std::thread& t : workers) t.join();
    r.wall = now_s() - t0;
    r.cpu = cpu_s() - c0;
    r.drain = last_exit - stopped_at.load();
    r.requests = requests.load();
    r.conflicts = coordinator.conflicts();
    r.cached = coordinator.outcome().cached;
    r.computed = coordinator.outcome().computed;
    r.status_body = coordinator.handle({"GET", "/status", {}, ""}, steady_ms()).body;
    out.op(r.conflicts == 0 && coordinator.outcome().failed == 0 && r.unclean_exits == 0);
    return r;
}

} // namespace

void run_fabric(const Config& config, Outcome& out) {
    SetupTimer<Setup> setups(config.trace, [&] {
        Setup s;
        // Several hundred light points: 9 densities x 3 tori x repetitions.
        s.text = derived_manifest(config, "ci_smoke.json", config.seed,
                                  {{"name", "fabric-many"},
                                   {"m", "8"},
                                   {"n", "8"},
                                   {"trials", std::to_string(kTrialsPerPoint)},
                                   {"grid.density",
                                    "[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]"},
                                   {"grid.topology", "[\"mesh\", \"cordalis\", \"serpentinus\"]"},
                                   {"repetitions", config.smoke ? "1" : "16"}});
        s.manifest = scenario::parse_manifest(s.text, "fabric-many");
        s.trials = kTrialsPerPoint * scenario::expand(s.manifest).size();
        return s;
    });
    const Setup& setup = setups.state();

    // The placement-independence reference: a local run of the manifest.
    const auto local_artifact = [&] {
        scenario::CampaignOptions options;
        options.cache_dir = fresh_dir(config, "fabric-local");
        const std::string artifact =
            scenario::run_campaign(setup.manifest, options).to_json(setup.manifest);
        remove_tree(options.cache_dir);
        return artifact;
    };

    if (!config.trace) {
        PassSeries series;
        std::vector<double> hot_ms;  // every pass's, for the pooled percentiles
        int passes = 0;
        std::string reference;
        bool identical = true;
        run_passes(config.seconds, config.smoke ? 1 : 3, [&](int) {
            const PassResult r = fabric_pass(config, setup, out);
            if (reference.empty()) reference = r.artifact_text;
            identical = identical && r.artifact_text == reference;
            // Hot requests: `dynamo coordinate` restarted on the settled
            // cache + checkpoint renders without serving a single lease.
            hot_requests(config.smoke ? 2 : kHotPerPass, hot_ms, [&] {
                dist::CoordinatorOptions options;
                options.cache_dir = r.dir;
                options.checkpoint = r.checkpoint;
                const dist::CampaignCoordinator warm(setup.manifest, setup.text, options);
                out.op(warm.complete() && warm.artifact() == r.artifact_text);
            });
            series.add("wall_s", r.wall, "s");
            series.add("cpu_s", r.cpu, "s");
            series.add("artifact_s", r.artifact, "s");
            series.add("cold_rt_p50_ms", r.artifact * 1e3, "ms");
            series.add("trials_per_s", static_cast<double>(setup.trials) / r.artifact, "1/s");
            series.add("req_per_s", static_cast<double>(r.requests) / r.artifact, "1/s");
            ++passes;
        }, [&](double pass_s) { setups.after_pass(pass_s); });
        out.check(identical && reference == local_artifact(),
                  "every fabric artifact byte-identical to a local run_campaign artifact");
        out.check(out.failed == 0,
                  "every pass: 0 conflicts, 0 failed points, both workers exited clean");
        series.report_median(out);
        out.set("rt_p50_ms", quantile(hot_ms, 0.5), "ms");
        out.set("rt_p99_ms", quantile(hot_ms, 0.99), "ms");
        out.note("fabric-many: " + std::to_string(passes) + " coordinated campaigns of " +
                 std::to_string(scenario::expand(setup.manifest).size()) + " points, " +
                 std::to_string(hot_ms.size()) + " warm restarts");
    } else {
        const PassResult untraced = fabric_pass(config, setup, out);
        remove_tree(untraced.dir);
        trace::set_enabled(true);
        const PassResult traced = fabric_pass(config, setup, out);
        trace::set_enabled(false);
        out.check(traced.artifact_text == local_artifact(),
                  "traced fabric artifact byte-identical to a local run_campaign artifact");
        out.check(out.failed == 0 && traced.conflicts == 0,
                  "both passes: 0 conflicts, 0 failed points, both workers exited clean");
        const trace::Summary summary = trace::summarize();
        for (const char* target : {"manifest", "lease", "heartbeat", "complete"})
            out.set(std::string("dist.rpc_us.") + target,
                    mean_us(summary, std::string("dist.rpc.") + target), "us");
        out.set("coordinator.handle_us", mean_us(summary, "coordinator.handle"), "us");
        const Json status = Json::parse(traced.status_body);
        for (const auto& [metric, field] : {std::pair{"lease.count", "leases_granted"},
                                            std::pair{"lease.expired", "leases_expired"},
                                            std::pair{"lease.duplicates", "duplicates"},
                                            std::pair{"lease.conflicts", "conflicts"}})
            out.set(metric, static_cast<double>(status.find(field)->as_int()), "count");
        out.set("worker.idle_s", traced.idle_s, "s");
        out.set("worker.retries", static_cast<double>(traced.retries), "count");
        out.set("worker.drain_s", traced.drain, "s");
        out.set("cache.hits", static_cast<double>(traced.cached), "count");
        out.set("cache.misses", static_cast<double>(traced.computed), "count");
        report_trace(config, summary, traced.wall, untraced.wall, out);
        scenario_io_replay(config, setup.text, traced.dir, traced.artifact_text, out);
        remove_tree(traced.dir);
        measure_service_layer(config, out);
    }
    setups.report(out);
}

} // namespace e2e
