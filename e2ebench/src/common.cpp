#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace e2e {

using dynamo::util::Json;
using dynamo::util::JsonArray;
using dynamo::util::JsonObject;

double now_s() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double cpu_s() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double current_rss_kb() {
    std::ifstream statm("/proc/self/statm");
    double pages_total = 0.0;
    double pages_resident = 0.0;
    statm >> pages_total >> pages_resident;
    return pages_resident * static_cast<double>(::sysconf(_SC_PAGESIZE)) / 1024.0;
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

std::uint64_t fnv1a(const std::string& bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

void Outcome::op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
}

void Outcome::tally(std::uint64_t done, std::uint64_t failed_ops) {
    attempted += done;
    failed += failed_ops;
}

void Outcome::check(bool ok, const std::string& what) {
    op(ok);
    if (!ok) correct = false;
    lines.push_back(std::string(ok ? "check ok:   " : "CHECK FAIL: ") + what);
}

void Outcome::set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
}

std::string fresh_dir(const Config& config, const std::string& tag) {
    static std::atomic<std::uint64_t> counter{0};
    const std::string path =
        config.scratch + "/" + tag + "-" + std::to_string(counter.fetch_add(1));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    return path;
}

void remove_tree(const std::string& path) {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

namespace {

Json* member(JsonObject& object, const std::string& key) {
    for (auto& [k, v] : object)
        if (k == key) return &v;
    return nullptr;
}

void put(JsonObject& object, const std::string& key, Json value) {
    if (Json* slot = member(object, key)) {
        *slot = std::move(value);
    } else {
        object.emplace_back(key, std::move(value));
    }
}

std::uint64_t shifted(std::uint64_t committed, std::uint64_t seed) {
    return committed + (seed - kDefaultSeed);  // modular: the default seed is the identity
}

} // namespace

std::string derived_manifest(const Config& config, const std::string& file,
                             std::uint64_t seed,
                             const std::map<std::string, std::string>& overrides) {
    const Json doc = Json::parse(read_file(config.root + "/manifests/" + file), file);
    JsonObject root = doc.as_object();

    const Json* top_seed = doc.find("seed");
    const std::uint64_t committed_top =
        top_seed != nullptr ? std::stoull(top_seed->number_lexeme()) : 0;
    JsonObject fixed;
    if (const Json* f = doc.find("fixed")) fixed = f->as_object();
    JsonObject grid;
    if (const Json* g = doc.find("grid")) grid = g->as_object();

    if (Json* pinned = member(fixed, "seed")) {
        *pinned = Json(shifted(std::stoull(pinned->number_lexeme()), seed));
    } else if (file != "search_scaling_4x4.json") {
        // search_scaling_point takes no seed: the search is exhaustive.
        put(root, "seed", Json(shifted(committed_top, seed)));
    }
    for (const auto& [key, value] : overrides) {
        if (key == "name") {
            put(root, "name", Json(value));
        } else if (key == "repetitions") {
            put(root, "repetitions", Json(static_cast<std::uint64_t>(std::stoull(value))));
        } else if (key.rfind("grid.", 0) == 0) {
            put(grid, key.substr(5), Json::parse(value, "grid override"));
        } else {
            put(fixed, key, Json::parse(value, "fixed override"));
        }
    }
    if (!fixed.empty()) put(root, "fixed", Json(std::move(fixed)));
    if (!grid.empty()) put(root, "grid", Json(std::move(grid)));
    return Json(std::move(root)).dump(2) + "\n";
}

std::vector<std::map<std::string, std::string>> artifact_point_metrics(
    const std::string& artifact) {
    std::vector<std::map<std::string, std::string>> out;
    const Json doc = Json::parse(artifact, "campaign artifact");
    const Json* points = doc.find("points");
    if (points == nullptr) return out;
    for (const Json& point : points->as_array()) {
        std::map<std::string, std::string> metrics;
        if (const Json* m = point.find("metrics"))
            for (const auto& [k, v] : m->as_object()) metrics[k] = v.scalar_to_param_string();
        out.push_back(std::move(metrics));
    }
    return out;
}

} // namespace e2e
