// perfbench: the parallelizer's measured benchmark (see ../README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//   perfbench --selfcheck
//
// Prints every metric the run measured, one per line, then as its last
// line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Its metrics are BENCHMARK.json's: in an untraced run the end-to-end
// metrics, in a traced run the per-layer metrics. --selfcheck runs every workload once at minimal size
// with all output checks, exec-corpus's parallel and speculative modes
// included, and exits non-zero if any check fails.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "trace/trace.hpp"

namespace {

/// N, the load side's worker threads: min(4, CPUs this process may use).
unsigned load_threads() {
    cpu_set_t set;
    CPU_ZERO(&set);
    const int cpus = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
    return static_cast<unsigned>(std::clamp(cpus, 1, 4));
}

pb::Result run_workload(const pb::Args& args) {
    if (args.workload == "exec-corpus") return pb::exec_corpus(args);
    if (args.workload == "compile-scale") return pb::compile_scale(args);
    if (args.workload == "seismic-native") return pb::seismic_native(args);
    if (args.workload == "serve-mixed") return pb::serve_mixed(args);
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    std::exit(2);
}

std::string format_value(double v) {
    char value[64];
    std::snprintf(value, sizeof value, "%.9g", v);
    return value;
}

void print_result(const pb::Args& args, pb::Result r) {
    for (const auto& [name, m] : r.metrics) {
        std::printf("%-44s %16s %s\n", name.c_str(), format_value(m.value).c_str(), m.unit.c_str());
    }
    std::string metrics;
    for (const std::string& name : args.trace ? pb::per_layer_names() : pb::end_to_end_names()) {
        const auto it = r.metrics.find(name);
        if (it == r.metrics.end()) {
            r.check(false, "metric " + name + " was not measured");
            continue;
        }
        metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + name + "\": {\"value\": " +
                   format_value(it->second.value) + ", \"unit\": \"" + it->second.unit + "\"}";
    }
    std::string json = "{\"correct\": ";
    json += r.errors.empty() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {" + metrics + "}}";
    for (const std::string& e : r.errors) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

/// The traced run's spans and per-layer table, written once at the end.
void write_trace(const pb::Args& args, pb::Result r) {
    const auto& e2e = pb::end_to_end_names();
    std::erase_if(r.metrics, [&](const auto& kv) {
        return std::find(e2e.begin(), e2e.end(), kv.first) != e2e.end();
    });
    const std::string path =
        args.out_dir + "/trace-" + args.workload + "-" + std::to_string(args.seed) + ".json";
    if (!pb::write_trace_file(path, r)) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

int selfcheck(pb::Args args) {
    args.selfcheck = true;
    args.parallel_modes = true;
    args.seconds = 0;
    int bad = 0;
    for (const char* w : {"exec-corpus", "compile-scale", "seismic-native", "serve-mixed"}) {
        for (bool trace : {false, true}) {
            args.workload = w;
            args.trace = trace;
            pb::Result r = run_workload(args);
            if (trace) write_trace(args, r);
            for (const std::string& name : trace ? pb::per_layer_names() : pb::end_to_end_names()) {
                r.check(r.metrics.count(name) != 0, "metric " + name + " was not measured");
            }
            const bool ok = r.errors.empty() && r.failed == 0 && r.attempted > 0;
            std::printf("selfcheck %-16s trace=%d attempted=%lld %s\n", w, trace ? 1 : 0,
                        static_cast<long long>(r.attempted), ok ? "ok" : "FAILED");
            for (const std::string& e : r.errors) std::printf("  %s\n", e.c_str());
            bad += ok ? 0 : 1;
        }
    }
    return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    pb::Args args;
    args.threads = load_threads();
    bool want_selfcheck = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--selfcheck") {
            want_selfcheck = true;
        } else if (a == "--workload" && has_value) {
            args.workload = argv[++i];
        } else if (a == "--seed" && has_value) {
            args.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && has_value) {
            args.seconds = std::atof(argv[++i]);
        } else if (a == "--trace" && has_value) {
            args.trace = std::string(argv[++i]) == "1";
        } else if (a == "--out-dir" && has_value) {
            args.out_dir = argv[++i];
        } else {
            std::fprintf(stderr, "perfbench: bad argument '%s'\n", a.c_str());
            return 2;
        }
    }
    try {
        if (want_selfcheck) return selfcheck(args);
        if (args.workload.empty()) {
            std::fprintf(stderr, "perfbench: --workload is required\n");
            return 2;
        }
        const pb::Result r = run_workload(args);
        print_result(args, r);
        if (args.trace) write_trace(args, r);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
