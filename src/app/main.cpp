// dynamo/app/main.cpp
//
// The unified `dynamo` CLI: one binary over the scenario registry.
//
//   dynamo list [--markdown]             catalog (markdown form is committed
//                                        as docs/scenarios.md and CI-gated)
//   dynamo describe <scenario>           parameter schema + example command
//   dynamo run <scenario> [--k=v ...]    run one scenario (strict args)
//   dynamo campaign <manifest.json>      expand x cache-or-compute x report
//          [--force] [--workers=N] [--cache-dir=DIR] [--out=FILE]
//          [--progress=FILE]             live JSONL: one line per completed point
//          [--shard=K/N]                 run only points with index % N == K
//          [--checkpoint=FILE]           crash-safe resume record (JSONL)
//   dynamo merge <shard.json>... --out=FILE
//                                        reassemble N shard artifacts into the
//                                        byte-identical unsharded campaign JSON
//   dynamo serve [--port=P] [--workers=N] [--cache-dir=DIR] [--port-file=PATH]
//                                        HTTP/JSON campaign service (loopback)
//   dynamo coordinate <manifest.json> [--port=P] [--port-file=PATH] ...
//                                        distributed-campaign coordinator:
//                                        leases points to pulling workers,
//                                        persists through cache + checkpoint,
//                                        artifact byte-identical to a local run
//   dynamo work --coordinator=URL [--name=ID] [--workers=N] ...
//                                        pull-compute-complete worker loop
//   dynamo report <campaign.json>        render a campaign artifact as a
//          [--format=markdown|json]      comparison table (atlas-aware)
//          [--out=FILE]
//   dynamo cache stats|clear|merge [--cache-dir=DIR]
//
// Every paper table, figure, bench report and example is a registered
// scenario reached through `dynamo run <name>`; the google-benchmark suite
// bench_perf_engine is the only other executable.
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.hpp"
#include "dist/http_client.hpp"
#include "dist/worker.hpp"
#include "scenario/campaign.hpp"
#include "scenario/merge.hpp"
#include "scenario/report.hpp"
#include "scenario/scenario.hpp"
#include "service/http.hpp"
#include "service/service.hpp"
#include "util/parallel.hpp"

namespace {

using namespace dynamo;

int usage(std::ostream& out, int code) {
    out << "dynamo - unified scenario runner for the colored-tori reproduction\n"
           "\n"
           "  dynamo list [--markdown]            list registered scenarios\n"
           "  dynamo describe <scenario>          show parameters and defaults\n"
           "  dynamo run <scenario> [--k=v ...]   run one scenario\n"
           "  dynamo campaign <manifest.json> [--force] [--workers=N (0 = hardware)]\n"
           "                  [--cache-dir=DIR] [--out=FILE] [--progress=FILE]\n"
           "                  [--shard=K/N] [--checkpoint=FILE]\n"
           "                                      run an experiment manifest through\n"
           "                                      the content-addressed result cache\n"
           "                                      (--progress: live JSONL, one line\n"
           "                                      per completed point; --shard: own\n"
           "                                      only points with index % N == K;\n"
           "                                      --checkpoint: crash-safe resume)\n"
           "  dynamo merge <shard.json>... --out=FILE\n"
           "                                      reassemble shard artifacts into the\n"
           "                                      byte-identical unsharded campaign\n"
           "  dynamo serve [--port=P] [--workers=N] [--cache-dir=DIR]\n"
           "               [--port-file=PATH]\n"
           "                                      HTTP/JSON campaign service on\n"
           "                                      127.0.0.1 (docs/serving.md;\n"
           "                                      --port-file: write the bound port\n"
           "                                      atomically for scripts)\n"
           "  dynamo coordinate <manifest.json> [--port=P] [--port-file=PATH]\n"
           "                    [--out=FILE] [--cache-dir=DIR] [--checkpoint=FILE]\n"
           "                    [--force] [--lease-ttl-ms=MS] [--batch=N]\n"
           "                    [--progress=FILE]\n"
           "                                      hand out point leases to pulling\n"
           "                                      `dynamo work` processes; artifact\n"
           "                                      is byte-identical to a local run\n"
           "  dynamo work --coordinator=URL [--name=ID] [--workers=N] [--capacity=N]\n"
           "              [--poll-ms=MS] [--retries=N] [--backoff-ms=MS]\n"
           "              [--backoff-cap-ms=MS]\n"
           "                                      pull leases, compute points, push\n"
           "                                      results; exits 0 when the campaign\n"
           "                                      completes or the coordinator shuts\n"
           "                                      down after contact; --poll-ms caps\n"
           "                                      the 1, 2, 4, ... ms wait-poll ramp\n"
           "  dynamo report <campaign.json> [--format=markdown|json] [--out=FILE]\n"
           "                                      render a campaign artifact as a\n"
           "                                      comparison table (atlas-aware)\n"
           "  dynamo cache stats|clear [--cache-dir=DIR]\n"
           "  dynamo cache merge <src-dir>... [--cache-dir=DST]\n"
           "                                      copy entries from shard caches\n"
           "\n"
           "docs: docs/scenarios.md (catalog), docs/manifest-format.md (campaigns),\n"
           "      docs/serving.md (shard/merge/resume + HTTP service),\n"
           "      docs/reproducing-the-paper.md (paper artifact -> command)\n";
    return code;
}

int cmd_list(int argc, char** argv) {
    const CliArgs args(argc - 1, argv + 1, CliGrammar{{"markdown"}, {}});
    scenario::print_list(std::cout, args.get_flag("markdown"));
    return 0;
}

int cmd_describe(int argc, char** argv) {
    const CliArgs args(argc - 1, argv + 1);
    if (args.positional().size() != 1) {
        std::cerr << "usage: dynamo describe <scenario>\n";
        return 2;
    }
    const scenario::Scenario* s = scenario::find(args.positional()[0]);
    if (s == nullptr) {
        std::cerr << "unknown scenario '" << args.positional()[0]
                  << "' — `dynamo list` shows the registered names\n";
        return 2;
    }
    scenario::print_describe(std::cout, *s);
    return 0;
}

int cmd_run(int argc, char** argv) {
    if (argc < 3) {
        std::cerr << "usage: dynamo run <scenario> [--param=value ...]\n";
        return 2;
    }
    const scenario::Scenario* s = scenario::find(argv[2]);
    if (s == nullptr) {
        std::cerr << "unknown scenario '" << argv[2]
                  << "' — `dynamo list` shows the registered names\n";
        return 2;
    }
    // argv[2] (the scenario name) becomes the sub-parse's program name, so
    // strict validation sees only the scenario's own arguments.
    const CliArgs args(argc - 2, argv + 2, scenario::grammar(*s));
    if (const std::string err = scenario::validate_args(*s, args, true); !err.empty()) {
        std::cerr << "dynamo run: " << err << "\n";
        return 2;
    }
    scenario::Context ctx{args, std::cout, {}};
    return scenario::run(*s, ctx);
}

/// Parses a --shard=K/N value. Throws std::invalid_argument on anything
/// that is not two integers around one slash with K < N.
void parse_shard_spec(const std::string& spec, unsigned& index, unsigned& count) {
    const std::size_t slash = spec.find('/');
    const auto parse_unsigned = [&spec](const std::string& text) -> unsigned {
        // Digits only, and no wrap: 4294967297 is refused, not read as 1.
        unsigned value = 0;
        const char* end = text.data() + text.size();
        const auto [stop, error] = std::from_chars(text.data(), end, value);
        if (error != std::errc() || stop != end)
            throw std::invalid_argument("bad --shard '" + spec + "' (want K/N)");
        return value;
    };
    if (slash == std::string::npos)
        throw std::invalid_argument("bad --shard '" + spec + "' (want K/N)");
    index = parse_unsigned(spec.substr(0, slash));
    count = parse_unsigned(spec.substr(slash + 1));
    if (count == 0 || index >= count)
        throw std::invalid_argument("bad --shard '" + spec + "': index must be < count");
}

int cmd_campaign(int argc, char** argv) {
    const CliArgs args(
        argc - 1, argv + 1,
        CliGrammar{{"force"},
                   {"workers", "cache-dir", "out", "progress", "shard", "checkpoint"}});
    if (args.positional().size() != 1) {
        std::cerr << "usage: dynamo campaign <manifest.json> [--force] [--workers=N] "
                     "[--cache-dir=DIR] [--out=FILE] [--progress=FILE] [--shard=K/N] "
                     "[--checkpoint=FILE]\n";
        return 2;
    }
    const scenario::Manifest manifest = scenario::load_manifest(args.positional()[0]);

    scenario::CampaignOptions options;
    options.force = args.get_flag("force");
    options.cache_dir = args.get_string("cache-dir", options.cache_dir);
    if (const std::string shard = args.get_string("shard", ""); !shard.empty())
        parse_shard_spec(shard, options.shard_index, options.shard_count);
    options.checkpoint = args.get_string("checkpoint", "");
    std::ofstream progress;
    if (const std::string path = args.get_string("progress", ""); !path.empty()) {
        progress.open(path, std::ios::binary | std::ios::trunc);
        DYNAMO_REQUIRE(static_cast<bool>(progress),
                       "cannot write campaign progress '" + path + "'");
        options.progress = &progress;
    }
    const std::int64_t workers_arg = args.get_int("workers", 0);
    const unsigned workers =
        workers_arg > 0 ? static_cast<unsigned>(workers_arg) : ThreadPool::default_threads();
    // No pool below 2 workers — don't spawn threads a serial (or fully
    // cached) campaign will never use.
    std::optional<ThreadPool> pool;
    if (workers > 1) {
        pool.emplace(workers);
        options.pool = &*pool;
    }

    const scenario::CampaignOutcome outcome = scenario::run_campaign(manifest, options);
    const std::string report = outcome.to_json(manifest);
    const std::string out_path = args.get_string("out", "");
    if (out_path.empty()) {
        std::cout << report;
    } else {
        std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
        DYNAMO_REQUIRE(static_cast<bool>(out), "cannot write campaign report '" + out_path + "'");
        out << report;
    }
    // The one-line summary always lands on stdout: CI greps it to assert a
    // warm cache computes zero points.
    std::cout << outcome.summary(manifest) << "\n";
    return outcome.failed == 0 ? 0 : 1;
}

int cmd_merge(int argc, char** argv) {
    const CliArgs args(argc - 1, argv + 1, CliGrammar{{}, {"out"}});
    if (args.positional().empty()) {
        std::cerr << "usage: dynamo merge <shard.json>... [--out=FILE]\n";
        return 2;
    }
    std::vector<scenario::ShardArtifact> shards;
    shards.reserve(args.positional().size());
    for (const std::string& path : args.positional()) {
        std::ifstream in(path, std::ios::binary);
        DYNAMO_REQUIRE(static_cast<bool>(in), "cannot open shard artifact '" + path + "'");
        std::ostringstream buf;
        buf << in.rdbuf();
        shards.push_back({path, buf.str()});
    }
    const std::string merged = scenario::merge_campaign_artifacts(shards);
    const std::string out_path = args.get_string("out", "");
    if (out_path.empty()) {
        std::cout << merged;
    } else {
        std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
        DYNAMO_REQUIRE(static_cast<bool>(out),
                       "cannot write merged campaign '" + out_path + "'");
        out << merged;
    }
    std::cout << "merged " << shards.size() << " shard artifact(s)\n";
    return 0;
}

int cmd_serve(int argc, char** argv) {
    const CliArgs args(argc - 1, argv + 1,
                       CliGrammar{{}, {"port", "port-file", "workers", "cache-dir"}});
    if (!args.positional().empty()) {
        std::cerr << "usage: dynamo serve [--port=P (0 = ephemeral)] [--workers=N] "
                     "[--cache-dir=DIR] [--port-file=PATH]\n";
        return 2;
    }
    const std::int64_t port_arg = args.get_int("port", 0);
    DYNAMO_REQUIRE(port_arg >= 0 && port_arg <= 65535, "--port must be in [0, 65535]");

    const std::int64_t workers_arg = args.get_int("workers", 0);
    const unsigned workers =
        workers_arg > 0 ? static_cast<unsigned>(workers_arg) : ThreadPool::default_threads();
    std::optional<ThreadPool> pool;
    service::ServiceOptions service_options;
    service_options.cache_dir = args.get_string("cache-dir", service_options.cache_dir);
    if (workers > 1) {
        pool.emplace(workers);
        service_options.pool = &*pool;
    }

    service::HttpServer server(static_cast<std::uint16_t>(port_arg));
    service::CampaignService service(std::move(service_options));
    // --port-file is the robust way for scripts to learn an ephemeral
    // port (atomic write — the file appears only after the bind, fully
    // formed); the log line below stays for humans and old scripts.
    if (const std::string port_file = args.get_string("port-file", ""); !port_file.empty())
        service::write_port_file(port_file, server.port());
    std::cout << "dynamo serve: listening on http://127.0.0.1:" << server.port() << "\n"
              << std::flush;
    server.serve_forever([&](const service::HttpRequest& request) -> service::HttpResponse {
        if (request.target == "/shutdown") {
            if (request.method != "POST")
                return {405, "application/json", "{\"error\": \"use POST\"}\n"};
            server.stop();
            return {200, "application/json", "{\"status\": \"stopping\"}\n"};
        }
        return service.handle(request);
    });
    std::cout << "dynamo serve: shut down\n";
    return 0;
}

/// Monotonic milliseconds for the coordinator's injected clock (lease
/// TTLs are durations, so the epoch is irrelevant — only steadiness).
std::uint64_t steady_now_ms() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

int cmd_coordinate(int argc, char** argv) {
    const CliArgs args(argc - 1, argv + 1,
                       CliGrammar{{"force"},
                                  {"port", "port-file", "out", "cache-dir", "checkpoint",
                                   "lease-ttl-ms", "batch", "progress"}});
    if (args.positional().size() != 1) {
        std::cerr << "usage: dynamo coordinate <manifest.json> [--port=P] "
                     "[--port-file=PATH] [--out=FILE] [--cache-dir=DIR] "
                     "[--checkpoint=FILE] [--force] [--lease-ttl-ms=MS] [--batch=N] "
                     "[--progress=FILE]\n";
        return 2;
    }
    const std::int64_t port_arg = args.get_int("port", 0);
    DYNAMO_REQUIRE(port_arg >= 0 && port_arg <= 65535, "--port must be in [0, 65535]");

    // Keep the raw document: GET /manifest serves it VERBATIM so workers
    // expand exactly the coordinator's grid.
    const std::string manifest_path = args.positional()[0];
    std::ifstream in(manifest_path, std::ios::binary);
    DYNAMO_REQUIRE(static_cast<bool>(in), "cannot open manifest '" + manifest_path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string manifest_text = buf.str();
    const scenario::Manifest manifest =
        scenario::parse_manifest(manifest_text, manifest_path);

    dist::CoordinatorOptions options;
    options.cache_dir = args.get_string("cache-dir", options.cache_dir);
    options.checkpoint = args.get_string("checkpoint", "");
    options.force = args.get_flag("force");
    const std::int64_t ttl_arg = args.get_int("lease-ttl-ms", 10000);
    DYNAMO_REQUIRE(ttl_arg > 0, "--lease-ttl-ms must be positive");
    options.lease_ttl_ms = static_cast<std::uint64_t>(ttl_arg);
    const std::int64_t batch_arg = args.get_int("batch", 4);
    DYNAMO_REQUIRE(batch_arg > 0, "--batch must be positive");
    options.batch = static_cast<std::size_t>(batch_arg);
    std::ofstream progress;
    if (const std::string path = args.get_string("progress", ""); !path.empty()) {
        progress.open(path, std::ios::binary | std::ios::trunc);
        DYNAMO_REQUIRE(static_cast<bool>(progress),
                       "cannot write campaign progress '" + path + "'");
        options.progress = &progress;
    }

    dist::CampaignCoordinator coordinator(manifest, manifest_text, std::move(options));

    bool interrupted = false;
    if (coordinator.complete()) {
        // Warm resume: checkpoint + cache already cover every point — no
        // reason to open a socket just to tell workers "done".
        std::cout << "dynamo coordinate: campaign already complete (cache/checkpoint), "
                     "not serving\n";
    } else {
        service::HttpServer server(static_cast<std::uint16_t>(port_arg));
        if (const std::string port_file = args.get_string("port-file", "");
            !port_file.empty())
            service::write_port_file(port_file, server.port());
        std::cout << "dynamo coordinate: listening on http://127.0.0.1:" << server.port()
                  << " (" << coordinator.total_points() << " points, "
                  << coordinator.settled_points() << " already settled)\n"
                  << std::flush;
        // Completion also arrives with no request at all: a worker killed
        // while idle stops holding the drain open one lease TTL after it
        // was last seen. Re-check on the steady clock between requests.
        std::mutex watch_mutex;
        std::condition_variable watch_cv;
        bool serving = true;
        std::thread watcher([&] {
            std::unique_lock<std::mutex> lock(watch_mutex);
            while (!watch_cv.wait_for(lock, std::chrono::milliseconds(50),
                                      [&serving] { return !serving; }))
                if (coordinator.complete(steady_now_ms())) server.stop();
        });
        server.serve_forever(
            [&](const service::HttpRequest& request) -> service::HttpResponse {
                service::HttpResponse response =
                    coordinator.handle(request, steady_now_ms());
                // Stop AFTER routing, so the worker told "done" last still
                // gets its reply.
                if (coordinator.complete()) server.stop();
                return response;
            });
        {
            const std::lock_guard<std::mutex> lock(watch_mutex);
            serving = false;
        }
        watch_cv.notify_all();
        watcher.join();
        interrupted = !coordinator.settled();
    }

    const std::string report = coordinator.artifact();
    const std::string out_path = args.get_string("out", "");
    if (out_path.empty()) {
        std::cout << report;
    } else {
        std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
        DYNAMO_REQUIRE(static_cast<bool>(out),
                       "cannot write campaign report '" + out_path + "'");
        out << report;
    }
    std::cout << coordinator.summary() << "\n";
    if (coordinator.conflicts() > 0) {
        std::cerr << "dynamo coordinate: " << coordinator.conflicts()
                  << " conflicting duplicate completion(s) — results are supposed to be "
                     "pure functions of (manifest, index); failing loudly\n";
        return 4;
    }
    if (interrupted) {
        std::cerr << "dynamo coordinate: interrupted before completion\n";
        return 3;
    }
    return coordinator.outcome().failed == 0 ? 0 : 1;
}

int cmd_work(int argc, char** argv) {
    const CliArgs args(argc - 1, argv + 1,
                       CliGrammar{{"no-heartbeat"},
                                  {"coordinator", "name", "workers", "capacity", "poll-ms",
                                   "retries", "backoff-ms", "backoff-cap-ms"}});
    const std::string url = args.get_string("coordinator", "");
    if (!args.positional().empty() || url.empty()) {
        std::cerr << "usage: dynamo work --coordinator=URL [--name=ID] [--workers=N] "
                     "[--capacity=N] [--poll-ms=MS] [--retries=N] [--backoff-ms=MS] "
                     "[--backoff-cap-ms=MS] [--no-heartbeat]\n";
        return 2;
    }
    const std::optional<dist::Endpoint> endpoint = dist::parse_endpoint(url);
    if (!endpoint.has_value()) {
        std::cerr << "dynamo work: bad --coordinator '" << url
                  << "' (want http://host:port)\n";
        return 2;
    }

    dist::WorkerOptions options;
    options.name = args.get_string("name", "worker-" + std::to_string(::getpid()));
    const std::int64_t capacity_arg = args.get_int("capacity", 4);
    DYNAMO_REQUIRE(capacity_arg > 0, "--capacity must be positive");
    options.capacity = static_cast<std::size_t>(capacity_arg);
    const std::int64_t poll_arg = args.get_int("poll-ms", 200);
    DYNAMO_REQUIRE(poll_arg >= 0, "--poll-ms must be non-negative");
    options.poll_ms = static_cast<std::uint64_t>(poll_arg);
    const std::int64_t retries_arg = args.get_int("retries", 8);
    DYNAMO_REQUIRE(retries_arg >= 0, "--retries must be non-negative");
    options.backoff.max_attempts = static_cast<unsigned>(retries_arg);
    const std::int64_t backoff_arg = args.get_int("backoff-ms", 50);
    DYNAMO_REQUIRE(backoff_arg > 0, "--backoff-ms must be positive");
    options.backoff.base_ms = static_cast<std::uint64_t>(backoff_arg);
    const std::int64_t cap_arg = args.get_int("backoff-cap-ms", 2000);
    DYNAMO_REQUIRE(cap_arg >= backoff_arg, "--backoff-cap-ms must be >= --backoff-ms");
    options.backoff.cap_ms = static_cast<std::uint64_t>(cap_arg);
    // Decorrelate retry jitter across workers deterministically: the
    // seed is a pure function of the worker's name.
    for (const unsigned char c : options.name)
        options.backoff.jitter_seed = options.backoff.jitter_seed * 0x100000001b3ULL ^ c;
    options.heartbeats = !args.get_flag("no-heartbeat");
    options.log = &std::cout;

    const std::int64_t workers_arg = args.get_int("workers", 0);
    const unsigned workers =
        workers_arg > 0 ? static_cast<unsigned>(workers_arg) : ThreadPool::default_threads();
    std::optional<ThreadPool> pool;
    if (workers > 1) {
        pool.emplace(workers);
        options.pool = &*pool;
    }

    dist::WorkerLoop loop(
        [endpoint](const std::string& method, const std::string& target,
                   const std::string& body) {
            return dist::http_request(*endpoint, method, target, body);
        },
        std::move(options));
    const dist::WorkerExit exit = loop.run();
    std::cout << "dynamo work: " << dist::to_string(exit) << " ("
              << loop.points_computed() << " points over " << loop.leases_completed()
              << " leases)\n";
    return dist::worker_exit_clean(exit) ? 0 : 1;
}

int cmd_report(int argc, char** argv) {
    const CliArgs args(argc - 1, argv + 1, CliGrammar{{}, {"format", "out"}});
    if (args.positional().size() != 1) {
        std::cerr << "usage: dynamo report <campaign.json> [--format=markdown|json] "
                     "[--out=FILE]\n";
        return 2;
    }
    const std::string format_name = args.get_string("format", "markdown");
    scenario::ReportFormat format;
    if (format_name == "markdown") {
        format = scenario::ReportFormat::Markdown;
    } else if (format_name == "json") {
        format = scenario::ReportFormat::Json;
    } else {
        std::cerr << "dynamo report: unknown format '" << format_name
                  << "' (known: markdown, json)\n";
        return 2;
    }

    const std::string path = args.positional()[0];
    std::ifstream in(path, std::ios::binary);
    DYNAMO_REQUIRE(static_cast<bool>(in), "cannot open campaign artifact '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string rendered = scenario::render_report(buf.str(), path, format);

    const std::string out_path = args.get_string("out", "");
    if (out_path.empty()) {
        std::cout << rendered;
    } else {
        std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
        DYNAMO_REQUIRE(static_cast<bool>(out), "cannot write report '" + out_path + "'");
        out << rendered;
    }
    return 0;
}

int cmd_cache(int argc, char** argv) {
    const CliArgs args(argc - 1, argv + 1, CliGrammar{{}, {"cache-dir"}});
    const std::string dir = args.get_string("cache-dir", ".dynamo-cache");
    const auto& positional = args.positional();
    const std::string verb = positional.empty() ? "" : positional[0];
    const bool arity_ok = verb == "merge" ? positional.size() >= 2 : positional.size() == 1;
    if (!arity_ok || (verb != "stats" && verb != "clear" && verb != "merge")) {
        std::cerr << "usage: dynamo cache stats|clear [--cache-dir=DIR]\n"
                     "       dynamo cache merge <src-dir>... [--cache-dir=DST]\n";
        return 2;
    }
    const scenario::ResultCache cache(dir);
    if (verb == "stats") {
        const auto stats = cache.stats();
        std::cout << "cache " << dir << ": " << stats.entries << " entries, " << stats.bytes
                  << " bytes (code epoch " << cache.code_epoch() << ")\n";
        return 0;
    }
    if (verb == "merge") {
        std::size_t copied = 0;
        for (std::size_t i = 1; i < positional.size(); ++i)
            copied += cache.merge_from(positional[i]);
        std::cout << "cache " << dir << ": merged " << copied << " entries from "
                  << positional.size() - 1 << " source(s)\n";
        return 0;
    }
    std::cout << "cache " << dir << ": removed " << cache.clear() << " entries\n";
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage(std::cerr, 2);
    const std::string cmd = argv[1];
    try {
        if (cmd == "list") return cmd_list(argc, argv);
        if (cmd == "describe") return cmd_describe(argc, argv);
        if (cmd == "run") return cmd_run(argc, argv);
        if (cmd == "campaign") return cmd_campaign(argc, argv);
        if (cmd == "merge") return cmd_merge(argc, argv);
        if (cmd == "serve") return cmd_serve(argc, argv);
        if (cmd == "coordinate") return cmd_coordinate(argc, argv);
        if (cmd == "work") return cmd_work(argc, argv);
        if (cmd == "report") return cmd_report(argc, argv);
        if (cmd == "cache") return cmd_cache(argc, argv);
        if (cmd == "help" || cmd == "--help" || cmd == "-h") return usage(std::cout, 0);
    } catch (const std::exception& e) {
        std::cerr << "dynamo " << cmd << ": " << e.what() << "\n";
        return 2;
    }
    std::cerr << "dynamo: unknown command '" << cmd << "'\n\n";
    return usage(std::cerr, 2);
}
