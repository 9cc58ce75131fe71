#pragma once

// Shared plumbing of the perfbench binary: arguments, the seeded RNG,
// statistics, the round loop, and the result every workload fills.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace/json.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /// Minimal sizes and a single round: the benchmark's own test.
    bool selfcheck = false;
    /// Load-side worker threads: min(4, CPUs this process may run on).
    unsigned threads = 1;
    /// exec-corpus also runs the parallel and speculative interpreter modes
    /// (the self-check sets it; see ../README.md, "Known faults").
    bool parallel_modes = false;
    /// Where trace files and serve cache directories go.
    std::string out_dir = ".";
};

/// splitmix64: the only source of randomness; inputs depend on the seed alone.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next() {
        std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }
    /// Uniform in [lo, hi].
    int uniform(int lo, int hi) {
        return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
    }
    template <typename T>
    void shuffle(std::vector<T>& v) {
        for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[next() % i]);
    }

private:
    std::uint64_t s_;
};

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 1].
[[nodiscard]] double percentile(std::vector<double> v, double p);

struct Metric {
    double value = 0;
    std::string unit;
};

/// What one run reports. `errors` lists failed output checks; any entry
/// makes the run incorrect.
struct Result {
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::map<std::string, Metric> metrics;
    std::vector<std::string> errors;
    /// Traced run only: the spans of its first traced round.
    ap::trace::json::Value trace;

    void set(const std::string& name, double value, const std::string& unit) {
        metrics[name] = {value, unit};
    }
    /// Records a failed output check (kept to the first few messages).
    void check(bool ok, const std::string& what);
};

/// BENCHMARK.json's metric lists. Every workload reports every one: an
/// untraced run the end-to-end metrics, a traced run the per-layer ones.
[[nodiscard]] const std::vector<std::string>& end_to_end_names();
[[nodiscard]] const std::vector<std::string>& per_layer_names();

/// Round timings split by whether tracing was on. In a traced run odd
/// rounds record spans and even rounds do not; the untraced rounds give
/// the workloads' own layer timings and the difference gives the tracing
/// overhead. A traced run also keeps, per round, how far each per-layer
/// counter moved, and per traced round, each span share of
/// per_layer_names() (span seconds per second of the round's wall time).
struct Rounds {
    int count = 0;
    std::vector<double> plain_s;
    std::vector<double> traced_s;
    ap::trace::json::Value first_traced;  ///< spans of the first traced round
    std::map<std::string, std::vector<double>> counters;
    std::map<std::string, std::vector<double>> shares;
};

/// A workload's set-up, timed every time it runs. The workload runs it
/// before its rounds, and run_rounds runs it again every `every` rounds
/// (never if `every` is 0), so that its samples spread over the whole run
/// as the rounds' do: this host's speed drifts over seconds, and set-ups
/// timed only in a run's first second vary far more from run to run than
/// the rounds do. `teardown`, if given, runs untimed before every set-up
/// but the first, so that every sample does the same work.
class SetUp {
public:
    SetUp(int every, std::function<void()> setup, std::function<void()> teardown = {})
        : every_(every), setup_(std::move(setup)), teardown_(std::move(teardown)) {}
    void operator()();
    [[nodiscard]] int every() const { return every_; }
    /// setup_s: the median of the samples.
    [[nodiscard]] double median_s() const { return median(samples_); }

private:
    int every_;
    std::function<void()> setup_;
    std::function<void()> teardown_;
    std::vector<double> samples_;
};

/// Runs whole rounds until `args.seconds` have passed (at least one; at
/// least two in a traced run, so both kinds of round exist), running
/// `setup` again, untraced and outside the rounds' times, before every
/// `setup.every()`-th round, if that is not 0. In a traced run, tracing is
/// switched on for exactly the odd rounds, and the spans of the first
/// traced round are kept; later ones are discarded to bound memory.
/// `round(i, traced)` does the work of round i.
Rounds run_rounds(const Args& args, SetUp& setup, const std::function<void(int, bool)>& round);

/// In a traced run, sets every metric of per_layer_names() from `rounds`
/// (medians over rounds; a layer the workload does not call reads 0) and
/// trace.overhead_s (the median traced round's wall time minus the median
/// untraced round's), and moves the kept spans into `result.trace`.
void finish_trace(const Args& args, const Rounds& rounds, Result& result);

[[nodiscard]] double peak_rss_mib();

/// Writes `result.trace` with the per-layer table added under "perLayer",
/// as one Chrome trace-event document; returns false on I/O failure.
bool write_trace_file(const std::string& path, const Result& result);

// Workloads ------------------------------------------------------------------

Result exec_corpus(const Args& args);
Result compile_scale(const Args& args);
Result seismic_native(const Args& args);
Result serve_mixed(const Args& args);

}  // namespace pb
