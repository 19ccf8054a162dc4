// e2ebench/src/common.hpp
//
// Shared plumbing of the end-to-end benchmark: clocks and resource
// counters, order statistics, the per-run outcome (checks + metrics), the
// scratch directories a run owns, and the seed -> manifest generators.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// Seconds on the steady clock (arbitrary epoch; only differences matter).
double now_s();
/// Process CPU seconds (getrusage user + sys, all threads).
double cpu_s();
/// Peak resident set size of the process in MiB (getrusage ru_maxrss).
double peak_rss_mb();
/// Current resident set size in KiB (/proc/self/statm).
double current_rss_kb();

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

std::uint64_t fnv1a(const std::string& bytes);

struct Metric {
    double value = 0.0;
    std::string unit;
};

/// Everything one invocation reports: operation and check tallies, the
/// metrics, and human-readable lines printed before the final JSON.
struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    std::map<std::string, Metric> metrics;
    std::vector<std::string> lines;

    /// One operation of the workload (a campaign request, a round trip,
    /// a worker exit); a failed one counts in `failed`.
    void op(bool ok);
    /// `done` operations of which `failed` failed (threads tally locally).
    void tally(std::uint64_t done, std::uint64_t failed);
    /// One output check; a mismatch counts as a failed operation and
    /// makes the run incorrect. `what` is printed either way.
    void check(bool ok, const std::string& what);
    void set(const std::string& name, double value, const std::string& unit);
    void note(const std::string& line) { lines.push_back(line); }
};

/// Run configuration parsed from the command line.
struct Config {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 15.0;
    bool trace = false;
    bool smoke = false;   ///< tiny inputs for the benchmark's own smoke test
    std::string root;     ///< checkout root (holds manifests/)
    std::string scratch;  ///< per-process scratch directory (removed at exit)
    std::string trace_out;  ///< where a traced run writes its span records
};

/// The seed the committed manifests carry (manifests/atlas_phase_transition.json);
/// at this benchmark seed every generated manifest equals its committed file.
inline constexpr std::uint64_t kDefaultSeed = 20110516;

/// A fresh, empty directory under the run's scratch area; unique per call.
/// Timed passes leave theirs in place, and main() removes the whole area
/// when the run ends: on ext4, deleting a pass's hundreds of cache files
/// made file creation in the next passes several times slower for tens of
/// seconds.
std::string fresh_dir(const Config& config, const std::string& tag);
void remove_tree(const std::string& path);
std::string read_file(const std::string& path);

/// Manifest JSON text derived from committed manifest `file` (under
/// manifests/): its seed (manifest-level, and `fixed.seed` when pinned
/// there) shifted by (seed - kDefaultSeed), and `overrides` applied to
/// `fixed` / replacing `grid` axes ("grid.<axis>" keys take a JSON array
/// lexeme, other keys a JSON scalar lexeme) and the top level ("name",
/// "repetitions").
std::string derived_manifest(const Config& config, const std::string& file,
                             std::uint64_t seed,
                             const std::map<std::string, std::string>& overrides = {});

/// Metrics of one campaign point, parsed from a campaign artifact, in
/// expansion order.
std::vector<std::map<std::string, std::string>> artifact_point_metrics(
    const std::string& artifact);

} // namespace e2e
