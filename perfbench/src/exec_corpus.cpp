// exec-corpus: the five corpora, compiled once in set-up, executed by the
// interpreter on seeded input decks. interp (and, in the self-check,
// runtime and spec) do nearly all the work.
//
// The parallel and speculative modes run only in the self-check:
// runtime::parallel_for's use-after-return kills or hangs such a run now
// and then (README.md, "Known faults").

#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "core/compiler.hpp"
#include "corpus/corpus.hpp"
#include "corpus/foreigns.hpp"
#include "interp/interp.hpp"
#include "runtime/parallel_for.hpp"
#include "spec/spec.hpp"
#include "trace/trace.hpp"

namespace pb {

namespace {

using Output = std::vector<std::string>;
using DeckValues = std::vector<double>;

enum Mode { kSerial, kParallel, kSpec, kModes };
constexpr std::array<const char*, kModes> kModeNames = {"serial", "parallel", "spec"};

/// One corpus of the workload: its decks, how many times per batch the
/// deck set runs (the weight that keeps every corpus near the same share
/// of a round), and what set-up produced for it.
struct Job {
    std::string slug;
    const ap::corpus::CorpusProgram* corpus = nullptr;
    std::vector<DeckValues> decks;
    int reps = 1;
    ap::ir::Program prog;
    std::vector<Output> reference;  ///< serial output per deck
};

// Seeded decks, drawn from each corpus's legal ranges (README.md, "Inputs").
// Where a value scales the run time linearly, decks come in antithetic
// pairs (v, lo + hi - v), so every seed gives a round the same total work.

std::vector<DeckValues> seismic_decks(Rng& rng) {
    const int shots = rng.uniform(1, 2);
    std::vector<DeckValues> decks;
    for (int nshot : {shots, 3 - shots}) {
        std::vector<int> order = {1, 2, 3, 4, 5, 6};
        rng.shuffle(order);
        DeckValues d = {static_cast<double>(nshot), 6, 12, 32, 64, 16};
        for (int code : order) d.push_back(code);
        decks.push_back(std::move(d));
    }
    return decks;
}

std::vector<DeckValues> gamess_decks(Rng& rng) {
    std::vector<int> scf = {1, 2, 3};  // RHF, UHF, GVB
    rng.shuffle(scf);
    std::vector<DeckValues> decks;
    for (int s : scf) decks.push_back({static_cast<double>(s), 8, 2, 100, 60});
    return decks;
}

std::vector<DeckValues> sander_decks(Rng& rng) {
    std::vector<DeckValues> decks;
    for (int imin : {1, 0}) {  // minimisation, dynamics
        const int steps = rng.uniform(1, 16);
        for (int nstep : {steps, 17 - steps}) {
            decks.push_back({static_cast<double>(imin), 20, static_cast<double>(nstep), 32});
        }
    }
    rng.shuffle(decks);
    return decks;
}

std::vector<double> numbers(const std::string& line) {
    std::istringstream is(line);
    std::vector<double> out;
    for (double v; is >> v;) out.push_back(v);
    return out;
}

/// Independent check of Linpack's printed B(1), B(N), X(1): the same
/// 24x24 system solved natively by Gaussian elimination with partial
/// pivoting. X = 0 + M*B, where M is the factored matrix; its first row
/// is the first row of U, so X(1) = U(1,:) . x.
std::string check_linpack(const Output& out) {
    constexpr int n = 24;
    std::vector<std::vector<double>> a(n, std::vector<double>(n));
    std::vector<double> b(n);
    for (int i = 0; i < n; ++i) {
        b[i] = 1.0 + 0.5 * (i + 1);
        for (int j = 0; j < n; ++j) a[i][j] = 1.0 / (i + j + 1);
        a[i][i] += n;
    }
    for (int k = 0; k < n; ++k) {
        int p = k;
        for (int i = k + 1; i < n; ++i) {
            if (std::fabs(a[i][k]) > std::fabs(a[p][k])) p = i;
        }
        std::swap(a[k], a[p]);
        std::swap(b[k], b[p]);
        for (int i = k + 1; i < n; ++i) {
            const double l = a[i][k] / a[k][k];
            for (int j = k; j < n; ++j) a[i][j] -= l * a[k][j];
            b[i] -= l * b[k];
        }
    }
    std::vector<double> x(n);
    for (int i = n - 1; i >= 0; --i) {
        double s = b[i];
        for (int j = i + 1; j < n; ++j) s -= a[i][j] * x[j];
        x[i] = s / a[i][i];
    }
    double x1 = 0;
    for (int j = 0; j < n; ++j) x1 += a[0][j] * x[j];

    const std::vector<double> got = out.empty() ? std::vector<double>{} : numbers(out[0]);
    if (out.size() != 1 || got.size() != 3) return "Linpack: unexpected output shape";
    const double want[3] = {x[0], x[n - 1], x1};
    const char* names[3] = {"B(1)", "B(N)", "X(1)"};
    for (int i = 0; i < 3; ++i) {
        if (std::fabs(got[i] - want[i]) > 1e-8 * std::fabs(want[i])) {
            char msg[128];
            std::snprintf(msg, sizeof msg, "Linpack: %s = %.10g, native solve gives %.10g",
                          names[i], got[i], want[i]);
            return msg;
        }
    }
    return {};
}

std::vector<Job> make_jobs(const Args& args) {
    Rng rng(args.seed);
    std::vector<Job> jobs(5);
    // Weights: deck-set repetitions per batch, so each corpus takes a
    // similar share of a round (README.md, "Corpus weights").
    jobs[0] = {"linpack", &ap::corpus::linpack(), {{}}, 25, {}, {}};
    jobs[1] = {"perfect", &ap::corpus::perfect(), {{}}, 4, {}, {}};
    jobs[2] = {"seismic", &ap::corpus::seismic(), seismic_decks(rng), 1, {}, {}};
    jobs[3] = {"gamess", &ap::corpus::gamess(), gamess_decks(rng), 2, {}, {}};
    jobs[4] = {"sander", &ap::corpus::sander(), sander_decks(rng), 5, {}, {}};
    if (args.selfcheck) {
        for (Job& j : jobs) j.reps = 1;
    }
    return jobs;
}

std::vector<ap::interp::Value> to_values(const DeckValues& deck) {
    return {deck.begin(), deck.end()};
}

struct Execution {
    Output output;
    double machine_s = 0;
    std::int64_t spec_attempts = 0, spec_commits = 0, spec_rollbacks = 0;
};

Execution execute(const Job& job, const DeckValues& deck, Mode mode, unsigned threads,
                  const ap::spec::Profile* profile, ap::spec::Profile* observe = nullptr) {
    Execution e;
    const auto t0 = Clock::now();
    ap::interp::Machine machine(job.prog);
    ap::corpus::register_foreigns(machine);
    const auto t1 = Clock::now();
    ap::trace::record_complete("interp.machine", "perfbench", t0, t1);
    e.machine_s = std::chrono::duration<double>(t1 - t0).count();
    ap::interp::ExecutionOptions opts;
    opts.profile = observe;
    opts.parallel = mode != kSerial;
    opts.threads = threads;
    ap::spec::Runtime rt;
    rt.profile = profile;
    if (mode == kSpec) opts.spec = &rt;
    ap::trace::Span run("interp.run." + job.slug, "perfbench");
    run.arg("mode", kModeNames[mode]);
    e.output = machine.run(to_values(deck), opts).output;
    for (const auto& [loop, s] : rt.registry.all()) {
        e.spec_attempts += s.attempts;
        e.spec_commits += s.commits;
        e.spec_rollbacks += s.rollbacks;
    }
    return e;
}

}  // namespace

Result exec_corpus(const Args& args) {
    Result res;
    std::vector<Job> jobs;
    std::unique_ptr<ap::spec::Profile> profile;
    std::vector<double> profile_s;

    // Set-up: compile every corpus with its own budget, take the serial
    // reference output, and build the speculation profile. It takes about
    // as long as a round; every tenth round repeats it.
    SetUp setup(10, [&] {
        jobs = make_jobs(args);
        profile = std::make_unique<ap::spec::Profile>();
        for (Job& j : jobs) {
            j.prog = ap::corpus::load(*j.corpus);
            ap::core::CompilerOptions copts;
            copts.loop_op_budget = j.corpus->loop_op_budget;
            (void)ap::core::compile(j.prog, copts);
            for (const DeckValues& d : j.decks) {
                j.reference.push_back(execute(j, d, kSerial, 1, nullptr).output);
            }
        }
        const auto p0 = Clock::now();
        for (Job& j : jobs) {
            for (std::size_t d = 0; d < j.decks.size(); ++d) {
                const Output seen = execute(j, j.decks[d], kSerial, 1, nullptr, profile.get()).output;
                res.check(seen == j.reference[d], j.slug + ": observe-mode output differs from serial");
            }
        }
        profile_s.push_back(seconds_since(p0));
        const std::string linpack_error = check_linpack(jobs[0].reference[0]);  // jobs[0] is Linpack
        res.check(linpack_error.empty(), linpack_error);
    });
    setup();

    // Per round and corpus: batch wall time per mode, machine set-up time,
    // and counter deltas.
    const int modes = args.parallel_modes ? kModes : 1;
    const std::size_t nj = jobs.size();
    std::vector<std::array<std::vector<double>, kModes>> batch_s(nj);
    std::array<std::vector<double>, kModes> total_s;
    std::vector<double> machine_s;
    std::int64_t ledger_attempts = 0, ledger_commits = 0, ledger_rollbacks = 0;

    const Rounds rounds = run_rounds(args, setup, [&](int round, bool traced) {
        std::array<double, kModes> totals{};
        double machine = 0;
        for (std::size_t j = 0; j < nj; ++j) {
            const Job& job = jobs[j];
            for (int k = 0; k < modes; ++k) {
                const Mode mode = static_cast<Mode>((k + round) % modes);
                ap::trace::Span span(std::string("exec.") + kModeNames[mode], "perfbench");
                const auto t0 = Clock::now();
                for (int rep = 0; rep < job.reps; ++rep) {
                    for (std::size_t d = 0; d < job.decks.size(); ++d) {
                        ++res.attempted;
                        try {
                            const Execution e =
                                execute(job, job.decks[d], mode, args.threads, profile.get());
                            machine += e.machine_s;
                            res.check(e.output == job.reference[d],
                                      job.slug + ": " + kModeNames[mode] +
                                          " output differs from serial");
                            res.check(e.spec_attempts == e.spec_commits + e.spec_rollbacks,
                                      job.slug + ": speculation ledger does not balance");
                            ledger_attempts += e.spec_attempts;
                            ledger_commits += e.spec_commits;
                            ledger_rollbacks += e.spec_rollbacks;
                        } catch (const std::exception& ex) {
                            ++res.failed;
                            res.check(false, job.slug + ": " + kModeNames[mode] + " run failed: " +
                                                 ex.what());
                        }
                    }
                }
                const double t = seconds_since(t0);
                totals[mode] += t;
                if (!traced) batch_s[j][mode].push_back(t);
            }
        }
        if (!traced) {
            for (int m = 0; m < modes; ++m) total_s[m].push_back(totals[m]);
            machine_s.push_back(machine);
        }
    });
    res.check(ledger_attempts == ledger_commits + ledger_rollbacks,
              "speculation ledger: attempts != commits + rollbacks");

    res.set("setup_s", setup.median_s(), "s");
    res.set("peak_rss_mib", peak_rss_mib(), "MiB");
    for (int m = 0; m < modes; ++m) {
        // work_s: the serial pass over every corpus and deck, per round.
        res.set(m == kSerial ? "work_s" : "exec_" + std::string(kModeNames[m]) + "_s",
                median(total_s[m]), "s");
        for (std::size_t j = 0; j < nj; ++j) {
            res.set("interp." + std::string(kModeNames[m]) + "_s." + jobs[j].slug,
                    median(batch_s[j][m]), "s");
        }
    }
    res.set("interp.machine_s", median(machine_s), "s");
    res.set("spec.profile_s", median(profile_s), "s");
    if (args.parallel_modes) {
        for (std::size_t j = 0; j < nj; ++j) {
            res.set("interp.parallel_ratio." + jobs[j].slug,
                    median(batch_s[j][kParallel]) / median(batch_s[j][kSerial]), "ratio");
        }
        if (args.trace) {
            ap::trace::Span span("runtime.fork_join", "perfbench");
            res.set("runtime.fork_join_us",
                    1e6 * ap::runtime::measure_fork_join_overhead(args.threads, 2000), "us");
        }
    }
    finish_trace(args, rounds, res);
    return res;
}

}  // namespace pb
