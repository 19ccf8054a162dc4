// serve-mixed: an in-process HttpServer + CampaignService (pool of 2)
// driven by a closed loop of 2 client threads over real loopback HTTP.
// About 90% of round trips submit a manifest whose points the cache
// already holds (warmed during set-up), poll its status and fetch the
// report; about 10% submit a small manifest with a fresh seed, which the
// service must compute and store. Periodic GET /campaigns and /healthz
// calls ride along. The simulation core stays nearly idle: the time goes
// to HTTP, service routing, cache reads and rendering — and to waiting
// behind cold jobs in the FIFO runner.
#include <sys/socket.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>

#include "dist/http_client.hpp"
#include "scenario/campaign.hpp"
#include "service/http.hpp"
#include "service/service.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using namespace dynamo;
using dynamo::util::Json;

constexpr unsigned kServicePool = 2;
constexpr unsigned kClients = 2;
constexpr std::size_t kRoundTripsPerPass = 500;
constexpr std::size_t kColdEvery = 10;     ///< round trip i is cold when i % 10 == 9
constexpr std::size_t kListEvery = 20;     ///< GET /campaigns before round trip i % 20 == 0
constexpr std::size_t kHealthEvery = 10;   ///< GET /healthz before round trip i % 10 == 5
constexpr int kIdleProbeTimeoutMs = 1000;  ///< cap of the idle-peer probe
constexpr std::chrono::microseconds kPollInterval{250};  ///< status poll period

/// A cold job is ci_smoke cut to one 12x12 point of 60 trials: it computes
/// and stores one point. The full ci_smoke stores eight, and creating one
/// cache file on a shared 4-vCPU VM took 20 us in some seconds and 750 us
/// in others, so eight files per cold job made a pass's time follow the
/// host's file-system latency more than the service.
const std::map<std::string, std::string> kColdOverrides{
    {"m", "12"},
    {"n", "12"},
    {"trials", "60"},
    {"grid.density", "[0.4]"},
    {"grid.topology", "[\"mesh\"]"},
    {"repetitions", "1"}};

const char* const kHotFiles[] = {"atlas_smoke.json", "rule_family_12x12.json",
                                 "search_scaling_4x4.json", "backend_matrix.json"};

struct Setup {
    std::string cache_dir;
    std::vector<std::string> hot_text;      ///< manifest bodies
    std::vector<std::string> hot_artifact;  ///< local run_campaign artifacts
};

/// A cold round trip's input and what the service answered.
struct ColdJob {
    std::string manifest;
    std::string report;
};

struct PassResult {
    double wall = 0.0;
    double artifact = 0.0;  ///< until the last report arrived
    double cpu = 0.0;
    std::size_t requests = 0;
    std::uint64_t trials = 0;  ///< trials computed by cold jobs
    std::uint64_t cached = 0;
    std::uint64_t computed = 0;
    std::vector<double> hot_ms, cold_ms;
    std::vector<ColdJob> cold;
    double clients = 0.0;   ///< first client start until every client finished
    bool http_ok = true;    ///< every /healthz and GET /campaigns answered 200
    double rss_per_job_kb = 0.0;
    double list_us_last = 0.0;
    std::vector<service::HttpRequest> sample_requests;
    std::vector<service::HttpResponse> sample_responses;
};

const char* route_of(const service::HttpRequest& request) {
    const std::string target = request.target.substr(0, request.target.find('?'));
    if (target == "/healthz") return "service.handle.healthz";
    if (target == "/campaigns")
        return request.method == "POST" ? "service.handle.submit" : "service.handle.list";
    if (target.size() > 7 && target.compare(target.size() - 7, 7, "/report") == 0)
        return "service.handle.report";
    return "service.handle.status";
}

/// One HTTP request from a client thread; traced runs attach the server's
/// handler span to it through a query parameter the service ignores.
std::optional<dist::HttpClientResponse> call(const dist::Endpoint& endpoint,
                                             const std::string& method, std::string target,
                                             const std::string& body, std::size_t& requests,
                                             int timeout_ms = 10000) {
    const trace::Span span("http.request", trace::Layer::Http);
    const trace::Link link = span.link();
    if (link.id != 0) target += "?span=" + std::to_string(link.id) + (link.lane ? "l" : "");
    ++requests;
    return dist::http_request(endpoint, method, target, body, timeout_ms);
}

trace::Link link_from_target(const std::string& target) {
    const std::size_t at = target.find("?span=");
    if (at == std::string::npos) return {};
    trace::Link link;
    link.id = std::stoull(target.substr(at + 6));
    link.lane = target.back() == 'l';
    return link;
}

/// Submit -> poll -> report. Returns the report body (empty on failure).
std::string round_trip(const dist::Endpoint& endpoint, const std::string& manifest,
                       std::size_t& requests, std::uint64_t& cached, std::uint64_t& computed) {
    const auto submitted = call(endpoint, "POST", "/campaigns", manifest, requests);
    if (!submitted || submitted->status != 202) return {};
    const std::string id = std::to_string(Json::parse(submitted->body).find("id")->as_int());
    for (;;) {
        const auto status = call(endpoint, "GET", "/campaigns/" + id, "", requests);
        if (!status || status->status != 200) return {};
        const Json doc = Json::parse(status->body);
        const std::string state = doc.find("status")->as_string();
        if (state == "done") {
            cached += static_cast<std::uint64_t>(doc.find("cached")->as_int());
            computed += static_cast<std::uint64_t>(doc.find("computed")->as_int());
            break;
        }
        if (state == "failed") return {};
        // A constant short interval: an exponential back-off would quantize
        // round-trip latency into its steps and make the tail jump between
        // them from run to run.
        std::this_thread::sleep_for(kPollInterval);
    }
    const auto report = call(endpoint, "GET", "/campaigns/" + id + "/report", "", requests);
    if (!report || report->status != 200) return {};
    return report->body;
}

PassResult serve_pass(const Config& config, const Setup& setup, int pass, Outcome& out) {
    PassResult result;
    const std::size_t trips = config.smoke ? 200 : kRoundTripsPerPass;
    // Cold manifests carry seeds no earlier request of this run used.
    std::vector<std::string> cold_text(trips);
    for (std::size_t i = kColdEvery - 1; i < trips; i += kColdEvery)
        cold_text[i] = derived_manifest(config, "ci_smoke.json",
                                        config.seed + 1 + pass * trips + i, kColdOverrides);
    const double rss_before = current_rss_kb();
    std::mutex mutex;  // guards result's vectors and samples
    std::atomic<std::uint64_t> list_ns{0};

    const double c0 = cpu_s();
    const double t0 = now_s();
    {
        // Every thread of the pass (pool, server, runner, clients) shares
        // one CPU, the next in the rotation. Spread over the VM's CPUs, each
        // hand-off between threads waits for another virtual CPU to run,
        // and pass times across runs split between about 0.3 s and 1.5 s
        // with the host's load. A fresh pool per pass, like a fresh
        // `dynamo serve`.
        const PinToNextCpu pin;
        ThreadPool pool(kServicePool);
        service::ServiceOptions options;
        options.cache_dir = setup.cache_dir;
        options.pool = &pool;
        service::HttpServer server(0);
        service::CampaignService service(std::move(options));
        std::thread loop([&] {
            server.serve_forever([&](const service::HttpRequest& request) {
                const char* route = route_of(request);
                const trace::Span span(route, trace::Layer::Service,
                                       link_from_target(request.target));
                const double h0 = now_s();
                service::HttpResponse response = service.handle(request);
                if (std::strcmp(route, "service.handle.list") == 0)
                    list_ns.store(static_cast<std::uint64_t>((now_s() - h0) * 1e9));
                if (trace::enabled()) {
                    const std::lock_guard<std::mutex> lock(mutex);
                    if (result.sample_requests.size() < 200) {
                        result.sample_requests.push_back(request);
                        result.sample_responses.push_back(response);
                    }
                }
                return response;
            });
        });
        const dist::Endpoint endpoint{"127.0.0.1", server.port()};

        std::atomic<std::size_t> next{0};
        std::atomic<bool> ok{true};
        double last_report = t0;
        const auto client = [&] {
            const trace::Span lane("client", trace::Layer::Bench, trace::Span::Kind::Lane);
            std::size_t requests = 0;
            std::uint64_t cached = 0, computed = 0;
            std::vector<double> hot_ms, cold_ms;
            std::vector<ColdJob> cold;
            std::uint64_t trips_done = 0, trips_failed = 0;
            for (std::size_t i = next++; i < trips; i = next++) {
                if (i % kListEvery == 0) {
                    const auto r = call(endpoint, "GET", "/campaigns", "", requests);
                    if (!r || r->status != 200) ok = false;
                }
                if (i % kHealthEvery == 5) {
                    const auto r = call(endpoint, "GET", "/healthz", "", requests);
                    if (!r || r->status != 200) ok = false;
                }
                const bool is_cold = !cold_text[i].empty();
                const std::size_t hot = i % setup.hot_text.size();
                const std::string& manifest = is_cold ? cold_text[i] : setup.hot_text[hot];
                const double r0 = now_s();
                std::string report;
                {
                    const trace::Span rt(is_cold ? "rt.cold" : "rt.hot", trace::Layer::Bench);
                    report = round_trip(endpoint, manifest, requests, cached, computed);
                }
                const double r1 = now_s();
                (is_cold ? cold_ms : hot_ms).push_back((r1 - r0) * 1e3);
                ++trips_done;
                if (is_cold) {
                    if (report.empty()) ++trips_failed;
                    cold.push_back({manifest, report});
                } else if (report != setup.hot_artifact[hot]) {
                    ++trips_failed;
                }
                const std::lock_guard<std::mutex> lock(mutex);
                last_report = std::max(last_report, r1);
            }
            const std::lock_guard<std::mutex> lock(mutex);
            out.tally(trips_done, trips_failed);
            result.requests += requests;
            result.cached += cached;
            result.computed += computed;
            result.hot_ms.insert(result.hot_ms.end(), hot_ms.begin(), hot_ms.end());
            result.cold_ms.insert(result.cold_ms.end(), cold_ms.begin(), cold_ms.end());
            for (ColdJob& job : cold) result.cold.push_back(std::move(job));
        };
        const double c_start = now_s();
        std::vector<std::thread> clients;
        for (unsigned c = 0; c < kClients; ++c) clients.emplace_back(client);
        for (std::thread& t : clients) t.join();
        result.clients = now_s() - c_start;
        result.artifact = last_report - t0;
        result.rss_per_job_kb = (current_rss_kb() - rss_before) / static_cast<double>(trips);
        result.http_ok = ok;
        server.stop();
        loop.join();
    }  // ~CampaignService joins the runner
    result.wall = now_s() - t0;
    result.cpu = cpu_s() - c0;
    result.list_us_last = static_cast<double>(list_ns.load()) * 1e-3;
    return result;
}

/// Cold reports must equal the campaign computed locally — every point
/// through compute_campaign_point, rendered by the campaign renderer,
/// exactly run_campaign's cold path minus the cache, so the check writes
/// no files. Also tallies the trials the cold jobs computed. Returns the
/// number of mismatching reports.
std::size_t verify_cold(PassResult& pass) {
    std::size_t mismatches = 0;
    for (const ColdJob& job : pass.cold) {
        const scenario::Manifest manifest = scenario::parse_manifest(job.manifest, "cold");
        const scenario::Scenario& scenario = *scenario::find(manifest.scenario);
        scenario::CampaignOutcome local;
        for (const scenario::PointSpec& spec : scenario::expand(manifest)) {
            scenario::CampaignPoint point;
            point.spec = spec;
            point.result = scenario::compute_campaign_point(scenario, spec);
            const auto it = point.result.metrics.find("trials");
            if (it != point.result.metrics.end()) pass.trials += std::stoull(it->second);
            local.points.push_back(std::move(point));
        }
        local.total_points = local.points.size();
        if (local.to_json(manifest) != job.report) ++mismatches;
    }
    return mismatches;
}

/// A client that connects and sends nothing, then a /healthz with a capped
/// timeout: how long does one idle peer stall the serial accept loop?
double idle_peer_stall(const Setup& setup) {
    service::ServiceOptions options;
    options.cache_dir = setup.cache_dir;
    service::HttpServer server(0);
    service::CampaignService service(std::move(options));
    std::thread loop([&] {
        server.serve_forever([&](const service::HttpRequest& r) { return service.handle(r); });
    });
    const int idle = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const bool connected =
        ::connect(idle, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
    const double t0 = now_s();
    const auto reply = dist::http_request({"127.0.0.1", server.port()}, "GET", "/healthz", "",
                                          kIdleProbeTimeoutMs);
    const double stall = now_s() - t0;
    ::close(idle);  // releases the accept loop
    server.stop();
    loop.join();
    (void)reply;
    return connected ? stall : 0.0;
}

/// The hot manifests, warmed into a fresh cache by local run_campaign
/// calls, with their artifacts (the expected report bodies).
Setup make_setup(const Config& config) {
    Setup s;
    s.cache_dir = fresh_dir(config, "serve-cache");
    ThreadPool pool(kServicePool);
    for (const char* file : kHotFiles) {
        std::map<std::string, std::string> overrides;
        if (config.smoke && std::string(file) == "search_scaling_4x4.json")
            overrides["grid.max-size"] = "[2, 3]";
        s.hot_text.push_back(derived_manifest(config, file, config.seed, overrides));
        const scenario::Manifest manifest = scenario::parse_manifest(s.hot_text.back(), file);
        scenario::CampaignOptions options;
        options.cache_dir = s.cache_dir;
        options.pool = &pool;
        s.hot_artifact.push_back(scenario::run_campaign(manifest, options).to_json(manifest));
    }
    return s;
}

struct ServiceLayer {
    PassResult untraced, traced;
    trace::Summary summary;
};

/// One untraced and one traced serve pass. Checks both, and sets the
/// service and HTTP per-layer metrics from the traced one.
ServiceLayer service_layer(const Config& config, const Setup& setup, Outcome& out) {
    ServiceLayer layer;
    layer.untraced = serve_pass(config, setup, 0, out);
    trace::set_enabled(true);
    layer.traced = serve_pass(config, setup, 1, out);
    trace::set_enabled(false);
    const PassResult& traced = layer.traced;
    out.check(layer.untraced.http_ok && traced.http_ok,
              "every /healthz and GET /campaigns answered 200");
    out.check(verify_cold(layer.traced) == 0,
              "cold reports byte-identical to the locally computed campaign");
    layer.summary = trace::summarize();
    const trace::Summary& summary = layer.summary;

    out.set("http.roundtrip_us", mean_us(summary, "http.request"), "us");
    for (const char* route : {"healthz", "submit", "list", "status", "report"})
        out.set(std::string("service.handle_us.") + route,
                mean_us(summary, std::string("service.handle.") + route), "us");
    out.set("service.list_us_last", traced.list_us_last, "us");
    out.set("service.rss_per_job_kb", traced.rss_per_job_kb, "KiB");

    // The server parses and renders inside serve_forever; time the same
    // public functions on the traffic it saw.
    std::vector<double> parse_us, render_us;
    for (std::size_t i = 0; i < traced.sample_requests.size(); ++i) {
        const service::HttpRequest& q = traced.sample_requests[i];
        const std::string raw = q.method + " " + q.target +
                                " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: "
                                "application/json\r\nContent-Length: " +
                                std::to_string(q.body.size()) +
                                "\r\nConnection: close\r\n\r\n" + q.body;
        double t = now_s();
        const auto parsed = service::parse_http_request(raw);
        parse_us.push_back((now_s() - t) * 1e6);
        out.op(parsed.has_value() && parsed->body == q.body);
        t = now_s();
        const std::string rendered = service::render_http_response(traced.sample_responses[i]);
        render_us.push_back((now_s() - t) * 1e6);
    }
    out.set("http.parse_us", median(parse_us), "us");
    out.set("http.render_us", median(render_us), "us");
    out.set("http.idle_peer_stall_s", idle_peer_stall(setup), "s");
    return layer;
}

} // namespace

void measure_service_layer(const Config& config, Outcome& out) {
    const Setup setup = make_setup(config);
    trace::reset();
    service_layer(config, setup, out);
    trace::reset();
    remove_tree(setup.cache_dir);
}

void run_serve(const Config& config, Outcome& out) {
    SetupTimer<Setup> setups(config.trace, [&] { return make_setup(config); });
    const Setup& setup = setups.state();

    if (!config.trace) {
        PassSeries series;
        std::vector<double> hot_ms, cold_ms;  // every pass's, for the pooled tail and counts
        int passes = 0;
        std::size_t mismatches = 0;
        bool http_ok = true;
        run_passes(config.seconds, config.smoke ? 1 : 3, [&](int pass) {
            PassResult r = serve_pass(config, setup, pass, out);
            mismatches += verify_cold(r);
            http_ok = http_ok && r.http_ok;
            series.add("wall_s", r.wall, "s");
            series.add("cpu_s", r.cpu, "s");
            series.add("artifact_s", r.artifact, "s");
            series.add("trials_per_s", static_cast<double>(r.trials) / r.artifact, "1/s");
            series.add("req_per_s", static_cast<double>(r.requests) / r.artifact, "1/s");
            // Per pass, not pooled like the other workloads' warm requests:
            // these round trips spread over the whole pass, and a fresh
            // server's first passes run slower.
            series.add("rt_p50_ms", quantile(r.hot_ms, 0.5), "ms");
            series.add("cold_rt_p50_ms", quantile(r.cold_ms, 0.5), "ms");
            hot_ms.insert(hot_ms.end(), r.hot_ms.begin(), r.hot_ms.end());
            cold_ms.insert(cold_ms.end(), r.cold_ms.begin(), r.cold_ms.end());
            ++passes;
        }, [&](double pass_s) { setups.after_pass(pass_s); });
        out.check(http_ok, "every /healthz and GET /campaigns answered 200");
        out.check(mismatches == 0, std::to_string(cold_ms.size()) +
                                       " cold reports byte-identical to the locally "
                                       "computed campaign");
        series.report_median(out);
        out.set("rt_p99_ms", quantile(hot_ms, 0.99), "ms");
        out.note("serve-mixed: " + std::to_string(passes) + " passes, " +
                 std::to_string(hot_ms.size()) + " hot and " + std::to_string(cold_ms.size()) +
                 " cold round trips");
    } else {
        const ServiceLayer layer = service_layer(config, setup, out);
        out.set("cache.hits", static_cast<double>(layer.traced.cached), "count");
        out.set("cache.misses", static_cast<double>(layer.traced.computed), "count");
        report_trace(config, layer.summary, layer.traced.clients, layer.untraced.clients, out);
        scenario_io_replay(config, setup.hot_text[0], setup.cache_dir, setup.hot_artifact[0],
                           out);
    }
    remove_tree(setup.cache_dir);
    setups.report(out);
}

} // namespace e2e
