// e2ebench: the repository's end-to-end benchmark.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
//            [--smoke] [--root DIR] [--stamp TEXT] [--results FILE]
//            [--trace-out FILE]
//
// Runs one workload (atlas-cold, serve-mixed, fabric-many, search-graph)
// in this process, checks its outputs, and prints one JSON object as the
// last line of standard output:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Errors before a result exists exit non-zero without one.
#include <csignal>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <vector>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using namespace e2e;

std::string number(double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out;
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) return line.substr(colon + 2);
        }
    }
    return "unknown";
}

int usage() {
    std::cerr << "usage: e2ebench --workload atlas-cold|serve-mixed|fabric-many|search-graph "
                 "--seed N --seconds S --trace 0|1 --scratch DIR [--smoke] [--root DIR] "
                 "[--stamp TEXT] [--results FILE] [--trace-out FILE]\n";
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    // The in-process servers write replies to peers that may have hung up
    // (the idle-peer probe's timed-out client); EPIPE is handled, SIGPIPE
    // must not end the run.
    std::signal(SIGPIPE, SIG_IGN);

    Config config;
    config.root = ".";
    std::string stamp = "unknown";
    std::string results;
    bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto value = [&]() -> std::string {
                if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
                return argv[++i];
            };
            if (arg == "--workload") {
                config.workload = value();
                have_workload = true;
            } else if (arg == "--seed") {
                config.seed = std::stoull(value());
                have_seed = true;
            } else if (arg == "--seconds") {
                config.seconds = std::stod(value());
                have_seconds = true;
            } else if (arg == "--trace") {
                config.trace = value() != "0";
                have_trace = true;
            } else if (arg == "--smoke") {
                config.smoke = true;
            } else if (arg == "--root") {
                config.root = value();
            } else if (arg == "--scratch") {
                config.scratch = value();
            } else if (arg == "--stamp") {
                stamp = value();
            } else if (arg == "--results") {
                results = value();
            } else if (arg == "--trace-out") {
                config.trace_out = value();
            } else {
                throw std::invalid_argument("unknown argument " + arg);
            }
        }
    } catch (const std::exception& e) {
        std::cerr << "e2ebench: " << e.what() << "\n";
        return usage();
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace || config.scratch.empty())
        return usage();

    Outcome out;
    try {
        remove_tree(config.scratch);
        if (config.workload == "atlas-cold") {
            run_atlas(config, out);
        } else if (config.workload == "serve-mixed") {
            run_serve(config, out);
        } else if (config.workload == "fabric-many") {
            run_fabric(config, out);
        } else if (config.workload == "search-graph") {
            run_search_graph(config, out);
        } else {
            std::cerr << "e2ebench: unknown workload '" << config.workload << "'\n";
            return usage();
        }
    } catch (const std::exception& e) {
        remove_tree(config.scratch);
        std::cerr << "e2ebench: " << config.workload << " failed: " << e.what() << "\n";
        return 1;
    }
    remove_tree(config.scratch);

    // The reported set is exactly the declared list: missing end-to-end
    // metrics are a benchmark bug (the run is marked incorrect), per-layer
    // metrics of layers this workload never enters report 0.
    const MetricList& declared = config.trace ? per_layer_metrics() : end_to_end_metrics();
    if (!config.trace) out.set("peak_rss_mb", peak_rss_mb(), "MiB");
    std::string metrics_json;
    std::vector<std::string> metric_lines;
    for (const auto& [name, unit] : declared) {
        double value = 0.0;
        if (const auto it = out.metrics.find(name); it != out.metrics.end()) {
            value = it->second.value;
            out.metrics.erase(it);
        } else if (!config.trace) {
            out.check(false, "end-to-end metric " + name + " was measured");
        }
        if (!metrics_json.empty()) metrics_json += ", ";
        metrics_json += "\"" + name + "\": {\"value\": " + number(value) + ", \"unit\": \"" +
                        unit + "\"}";
        metric_lines.push_back("metric " + name + " = " + number(value) + " " + unit);
    }
    for (const auto& [name, metric] : out.metrics)  // measured, not in this mode's list
        metric_lines.push_back("also   " + name + " = " + number(metric.value) + " " + metric.unit);

    const unsigned nproc = std::thread::hardware_concurrency();
    for (const std::string& line : out.lines) std::cout << line << "\n";
    for (const std::string& line : metric_lines) std::cout << line << "\n";
    std::cout << "failed_ratio = "
              << number(out.attempted ? static_cast<double>(out.failed) /
                                            static_cast<double>(out.attempted)
                                      : 1.0)
              << " (" << out.failed << " failed of " << out.attempted << " attempted)\n";
    std::cout << "stamp: " << stamp << " | nproc " << nproc << " | cpu " << cpu_model() << "\n";

    const std::string result = std::string("{\"correct\": ") + (out.correct ? "true" : "false") +
                               ", \"attempted\": " + std::to_string(out.attempted) +
                               ", \"failed\": " + std::to_string(out.failed) +
                               ", \"metrics\": {" + metrics_json + "}}";
    if (!results.empty()) {
        std::ofstream record(results, std::ios::app);
        record << "{\"stamp\": \"" << escape(stamp) << "\", \"nproc\": " << nproc
               << ", \"cpu\": \"" << escape(cpu_model()) << "\", \"workload\": \""
               << config.workload << "\", \"seed\": " << config.seed
               << ", \"trace\": " << (config.trace ? 1 : 0) << ", \"result\": " << result
               << "}\n";
    }
    std::cout << result << std::endl;
    return 0;
}
