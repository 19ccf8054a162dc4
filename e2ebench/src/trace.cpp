#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <unordered_map>

namespace e2e::trace {

namespace {

using Clock = std::chrono::steady_clock;

struct Frame {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    const char* name = nullptr;
    Layer layer = Layer::Bench;
    bool lane = false;       ///< part of a lane tree
    bool lane_root = false;
    bool keep = true;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;  ///< same-thread children
};

struct Record {
    std::uint64_t id;
    std::uint64_t parent;
    const char* name;
    Layer layer;
    std::uint32_t thread;
    std::int64_t start_ns;
    std::int64_t end_ns;
};

struct Aggregate {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::vector<double> durations_s;
};

struct State {
    std::mutex mutex;
    std::vector<Record> records;
    std::unordered_map<const char*, Aggregate> by_name;
    std::unordered_map<std::uint64_t, std::int64_t> remote_child_ns;
    std::array<std::int64_t, kLayers> lane_self_ns{};
    std::size_t lanes = 0;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_thread{0};
const Clock::time_point g_epoch = Clock::now();

State& state() {
    static State s;
    return s;
}

thread_local std::vector<Frame> t_stack;
thread_local std::uint32_t t_thread = g_next_thread.fetch_add(1);

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - g_epoch).count();
}

} // namespace

const char* layer_name(Layer layer) {
    static constexpr std::array<const char*, kLayers> names{
        "bench", "sim", "analysis", "stats", "scenario",
        "service", "http", "dist", "search", "graph"};
    return names[static_cast<std::size_t>(layer)];
}

void reset() {
    State& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.records.clear();
    s.by_name.clear();
    s.remote_child_ns.clear();
    s.lane_self_ns.fill(0);
    s.lanes = 0;
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Link current() {
    if (t_stack.empty()) return {};
    return {t_stack.back().id, t_stack.back().lane};
}

Span::Span(const char* name, Layer layer, bool keep) {
    if (!enabled()) return;
    open(name, layer, current(), false, keep);
}

Span::Span(const char* name, Layer layer, Kind kind) {
    if (!enabled()) return;
    open(name, layer, current(), kind == Kind::Lane, true);
}

Span::Span(const char* name, Layer layer, Link parent) {
    if (!enabled()) return;
    open(name, layer, parent, false, true);
}

void Span::open(const char* name, Layer layer, Link parent, bool lane_root, bool keep) {
    Frame frame;
    frame.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
    frame.parent = parent.id;
    frame.name = name;
    frame.layer = layer;
    frame.lane = lane_root || parent.lane;
    frame.lane_root = lane_root;
    frame.keep = keep;
    // A remote child reports to its parent through the shared map; a local
    // one through the parent's frame.
    const bool remote = parent.id != 0 && (t_stack.empty() || t_stack.back().id != parent.id);
    if (remote) frame.parent |= 1ULL << 63;  // tag, stripped when recorded
    frame.start_ns = now_ns();
    t_stack.push_back(frame);
    active_ = true;
}

Link Span::link() const {
    if (!active_) return {};
    return {t_stack.back().id, t_stack.back().lane};
}

Span::~Span() {
    if (!active_) return;
    const std::int64_t end_ns = now_ns();
    Frame frame = t_stack.back();
    t_stack.pop_back();
    const bool remote = (frame.parent >> 63) != 0;
    const std::uint64_t parent = frame.parent & ~(1ULL << 63);
    const std::int64_t duration = end_ns - frame.start_ns;

    State& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    std::int64_t self = duration - frame.child_ns;
    if (const auto it = s.remote_child_ns.find(frame.id); it != s.remote_child_ns.end()) {
        self -= it->second;
        s.remote_child_ns.erase(it);
    }
    if (self < 0) self = 0;
    if (parent != 0) {
        if (remote) {
            s.remote_child_ns[parent] += duration;
        } else if (!t_stack.empty()) {
            t_stack.back().child_ns += duration;
        }
    }
    if (frame.lane) s.lane_self_ns[static_cast<std::size_t>(frame.layer)] += self;
    if (frame.lane_root) ++s.lanes;
    Aggregate& agg = s.by_name[frame.name];
    ++agg.count;
    agg.total_ns += duration;
    agg.durations_s.push_back(static_cast<double>(duration) * 1e-9);
    if (frame.keep) {
        s.records.push_back(
            {frame.id, parent, frame.name, frame.layer, t_thread, frame.start_ns, end_ns});
    }
}

Summary summarize() {
    State& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    Summary out;
    for (const auto& [name, agg] : s.by_name) {
        NameStats& stats = out.by_name[name];
        stats.count += agg.count;
        stats.total_s += static_cast<double>(agg.total_ns) * 1e-9;
        stats.durations_s.insert(stats.durations_s.end(), agg.durations_s.begin(),
                                 agg.durations_s.end());
    }
    for (std::size_t i = 0; i < kLayers; ++i)
        out.lane_self_s[i] = static_cast<double>(s.lane_self_ns[i]) * 1e-9;
    out.lanes = s.lanes;
    out.records = s.records.size();
    return out;
}

void write_records(const std::string& path) {
    State& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    std::ofstream out(path, std::ios::trunc);
    for (const Record& r : s.records) {
        out << "{\"id\": " << r.id << ", \"parent\": " << r.parent << ", \"name\": \""
            << r.name << "\", \"layer\": \"" << layer_name(r.layer)
            << "\", \"thread\": " << r.thread << ", \"start_us\": " << r.start_ns / 1000
            << ", \"end_us\": " << r.end_ns / 1000 << "}\n";
    }
}

} // namespace e2e::trace
