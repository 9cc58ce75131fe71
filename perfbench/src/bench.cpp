#include "bench.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <string>

#include "trace/counters.hpp"
#include "trace/trace.hpp"

namespace pb {

namespace {

/// A per-layer time share: the seconds spent inside spans named one of
/// `spans` (or named with one of them and a '.' as prefix), per second of
/// the traced round's wall time. Spans on several threads add up, so a
/// share can exceed 1.
struct Share {
    std::string metric;
    std::vector<std::string> spans;
};

const std::vector<Share>& shares() {
    static const std::vector<Share> table = [] {
        std::vector<Share> t = {
            // perfbench's own spans around frontend::parse, and the daemon's.
            {"frontend.parse.time_share", {"frontend.parse", "serve.parse"}},
            // The program's spans: core::compile and its passes' PassTimers.
            {"core.compile.time_share", {"compile"}},
            {"core.pass.ddtest.time_share", {"data-dependence test"}},
            {"core.pass.privatization.time_share", {"privatization"}},
            {"core.pass.induction.time_share", {"induction variable substitution"}},
            {"core.pass.inline.time_share", {"inline expansion"}},
            {"core.pass.gsa.time_share", {"GSA translation"}},
            {"core.pass.constprop.time_share", {"interprocedural constant propagation"}},
            {"core.pass.reduction.time_share", {"reduction"}},
            {"core.pass.others.time_share", {"others"}},
            {"runtime.parallel_for.time_share", {"parallel_for"}},
            // perfbench's spans around Machine construction and Machine::run.
            {"interp.machine.time_share", {"interp.machine"}},
            {"interp.run.time_share", {"interp.run"}},
        };
        for (const char* corpus : {"linpack", "perfect", "seismic", "gamess", "sander"}) {
            const std::string span = std::string("interp.run.") + corpus;
            t.push_back({span + ".time_share", {span}});
        }
        // perfbench's spans around seismic::run_<phase>, named
        // seismic.<phase>.<flavor>: per phase, and per flavor.
        const char* phases[] = {"datagen", "stack", "fft3d", "findiff"};
        for (const char* phase : phases) {
            const std::string span = std::string("seismic.") + phase;
            t.push_back({span + ".time_share", {span}});
        }
        for (const char* flavor : {"serial", "omp", "mpi"}) {
            Share s{std::string("seismic.") + flavor + ".time_share", {}};
            for (const char* phase : phases) {
                s.spans.push_back(std::string("seismic.") + phase + "." + flavor);
            }
            t.push_back(std::move(s));
        }
        // The compile daemon's request phases.
        for (const char* phase : {"queue", "parse", "analyze", "respond"}) {
            const std::string span = std::string("serve.") + phase;
            t.push_back({span + ".time_share", {span}});
        }
        return t;
    }();
    return table;
}

/// The program's counters reported per layer, as deltas per round.
const std::vector<std::string>& counter_names() {
    static const std::vector<std::string> names = {
        "core.compiles", "ddtest.pairs_tested", "ddtest.loops_tested", "privatization.arrays",
        "inline.inlined", "symbolic.prover_depth_trips", "sched.queries", "sched.cache.hits",
        "guard.incidents", "guard.trips", "prov.records", "runtime.parallel_for.forked",
        "runtime.parallel_for.inline", "runtime.steal.chunks", "mpisim.messages", "mpisim.bytes",
        "mpi.retries", "mpi.timeouts", "serve.cache.hits", "serve.cache.misses",
        "serve.cache.appends", "serve.shed"};
    return names;
}

bool span_matches(const std::string& name, const std::string& prefix) {
    return name.size() >= prefix.size() && name.compare(0, prefix.size(), prefix) == 0 &&
           (name.size() == prefix.size() || name[prefix.size()] == '.');
}

/// Appends to `out`, for every share of shares(), the share of `wall_s`
/// that the spans of `doc` (a trace document) spent in it.
void record_shares(const ap::trace::json::Value& doc, double wall_s,
                   std::map<std::string, std::vector<double>>& out) {
    std::map<std::string, double> span_s;  // by span name
    const ap::trace::json::Value* events = doc.find("traceEvents");
    if (events && events->as_array()) {
        for (const ap::trace::json::Value& e : *events->as_array()) {
            const ap::trace::json::Value* name = e.find("name");
            const ap::trace::json::Value* dur = e.find("dur");
            if (name && dur && name->is_string()) span_s[name->as_string()] += dur->as_double() / 1e6;
        }
    }
    for (const Share& s : shares()) {
        double sum = 0;
        for (const auto& [name, sec] : span_s) {
            for (const std::string& prefix : s.spans) {
                if (span_matches(name, prefix)) {
                    sum += sec;
                    break;
                }
            }
        }
        out[s.metric].push_back(wall_s > 0 ? sum / wall_s : 0);
    }
}

}  // namespace

const std::vector<std::string>& end_to_end_names() {
    static const std::vector<std::string> names = {"setup_s", "peak_rss_mib", "work_s"};
    return names;
}

const std::vector<std::string>& per_layer_names() {
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n;
        for (const Share& s : shares()) n.push_back(s.metric);
        for (const std::string& c : counter_names()) n.push_back(c);
        n.push_back("sched.cache.hit_ratio");
        n.push_back("serve.cache.hit_ratio");
        n.push_back("trace.overhead_s");
        return n;
    }();
    return names;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t rank = static_cast<std::size_t>(p * static_cast<double>(v.size()) + 0.999999);
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void Result::check(bool ok, const std::string& what) {
    if (ok) return;
    if (errors.size() < 8) errors.push_back(what);
    else if (errors.size() == 8) errors.push_back("(further check failures omitted)");
}

void SetUp::operator()() {
    if (!samples_.empty() && teardown_) teardown_();
    const auto t0 = Clock::now();
    setup_();
    samples_.push_back(seconds_since(t0));
}

Rounds run_rounds(const Args& args, SetUp& setup, const std::function<void(int, bool)>& round) {
    Rounds r;
    const int min_rounds = args.trace ? 2 : 1;
    const auto t0 = Clock::now();
    while (r.count < min_rounds || (!args.selfcheck && seconds_since(t0) < args.seconds)) {
        if (setup.every() > 0 && r.count > 0 && r.count % setup.every() == 0) setup();
        const bool traced = args.trace && r.count % 2 == 1;
        const std::optional<ap::trace::CounterDelta> mark =
            args.trace ? std::optional<ap::trace::CounterDelta>(std::in_place) : std::nullopt;
        ap::trace::set_enabled(traced);
        const auto r0 = Clock::now();
        round(r.count, traced);
        const double wall = seconds_since(r0);
        (traced ? r.traced_s : r.plain_s).push_back(wall);
        ap::trace::set_enabled(false);
        if (mark) {
            const ap::trace::json::Value moved = mark->delta();
            for (const std::string& name : counter_names()) {
                const ap::trace::json::Value* v = moved.find(name);
                r.counters[name].push_back(v ? v->as_double() : 0.0);
            }
        }
        if (traced) {
            ap::trace::json::Value doc = ap::trace::to_json_value();
            record_shares(doc, wall, r.shares);
            if (r.traced_s.size() == 1) r.first_traced = std::move(doc);
            ap::trace::clear();
        }
        ++r.count;
    }
    return r;
}

void finish_trace(const Args& args, const Rounds& rounds, Result& result) {
    if (!args.trace) return;
    for (const Share& s : shares()) {
        const auto it = rounds.shares.find(s.metric);
        result.set(s.metric, it == rounds.shares.end() ? 0 : median(it->second), "s/s");
    }
    std::map<std::string, double> count;
    for (const std::string& name : counter_names()) {
        const auto it = rounds.counters.find(name);
        count[name] = it == rounds.counters.end() ? 0 : median(it->second);
        result.set(name, count[name], "count");
    }
    const double queries = count["sched.queries"];
    result.set("sched.cache.hit_ratio", queries > 0 ? count["sched.cache.hits"] / queries : 0, "ratio");
    const double lookups = count["serve.cache.hits"] + count["serve.cache.misses"];
    result.set("serve.cache.hit_ratio", lookups > 0 ? count["serve.cache.hits"] / lookups : 0, "ratio");
    result.set("trace.overhead_s", median(rounds.traced_s) - median(rounds.plain_s), "s");
    result.trace = rounds.first_traced;
}

double peak_rss_mib() {
    // VmHWM, unlike getrusage's ru_maxrss, does not carry over the peak of
    // the process image this one was exec'd from (the Python launcher).
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
    }
    return 0;
}

bool write_trace_file(const std::string& path, const Result& result) {
    ap::trace::json::Value doc = result.trace.is_object() ? result.trace : ap::trace::json::Value::object();
    ap::trace::json::Value table = ap::trace::json::Value::object();
    for (const auto& [name, m] : result.metrics) {
        ap::trace::json::Value row = ap::trace::json::Value::object();
        row.set("value", m.value);
        row.set("unit", m.unit);
        table.set(name, std::move(row));
    }
    doc.set("perLayer", std::move(table));
    std::ofstream out(path);
    out << doc.dump() << '\n';
    return static_cast<bool>(out);
}

}  // namespace pb
