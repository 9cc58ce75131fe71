// compile-scale: parse and compile, no execution, at 1 thread and at N
// threads with the analysis cache on. The inputs are the five corpora
// plus seeded programs of the two generated families. frontend, core,
// analysis, dependence, symbolic and sched do all the work.

#include <array>

#include "bench.hpp"
#include "core/compiler.hpp"
#include "corpus/corpus.hpp"
#include "frontend/parser.hpp"
#include "gen.hpp"
#include "serve/server.hpp"
#include "trace/trace.hpp"

namespace pb {

namespace {

/// One compile input: a corpus (checked against its hand-written target
/// histogram) or a generated program (checked loop by loop against its
/// designed verdicts).
struct Input {
    std::string slug;  ///< corpus slug or family name
    std::string name;
    std::string source;
    std::uint64_t budget = 2'000'000;
    const ap::corpus::CorpusProgram* corpus = nullptr;
    GenProgram generated;
    std::uint64_t fingerprint = 0;  ///< verdicts of the 1-thread set-up compile
};

struct PassSlug {
    ap::core::PassId id;
    const char* slug;
};
constexpr std::array<PassSlug, 8> kPasses = {{
    {ap::core::PassId::DataDependence, "ddtest"},
    {ap::core::PassId::Privatization, "privatization"},
    {ap::core::PassId::InductionSubstitution, "induction"},
    {ap::core::PassId::InlineExpansion, "inline"},
    {ap::core::PassId::GsaTranslation, "gsa"},
    {ap::core::PassId::InterproceduralConstProp, "constprop"},
    {ap::core::PassId::Reduction, "reduction"},
    {ap::core::PassId::Other, "others"},
}};

std::vector<Input> make_inputs(const Args& args) {
    std::vector<Input> inputs;
    const std::pair<const char*, const ap::corpus::CorpusProgram*> corpora[] = {
        {"linpack", &ap::corpus::linpack()}, {"perfect", &ap::corpus::perfect()},
        {"seismic", &ap::corpus::seismic()}, {"gamess", &ap::corpus::gamess()},
        {"sander", &ap::corpus::sander()}};
    for (const auto& [slug, c] : corpora) {
        Input in;
        in.slug = slug;
        in.name = c->name;
        in.source = c->source;
        in.budget = c->loop_op_budget;
        in.corpus = c;
        inputs.push_back(std::move(in));
    }
    Rng rng(args.seed ^ 0xC0FFEEULL);
    const int routines = args.selfcheck ? 4 : 64;
    for (int i = 0; i < 4; ++i) {
        Input in;
        const bool kernel = i % 2 == 0;
        in.slug = kernel ? "kernel" : "framework";
        in.name = (kernel ? "KGEN" : "FGEN") + std::to_string(i / 2);
        in.generated =
            generate(kernel ? Family::Kernel : Family::Framework, routines, rng, in.name);
        in.source = in.generated.source;
        inputs.push_back(std::move(in));
    }
    return inputs;
}

ap::core::CompileReport compile_input(const Input& in, unsigned threads, double* parse_s) {
    const auto t0 = Clock::now();
    ap::ir::Program prog;
    {
        ap::trace::Span span("frontend.parse", "perfbench");
        prog = ap::frontend::parse(in.source, in.name);
    }
    if (parse_s) *parse_s += seconds_since(t0);
    ap::core::CompilerOptions opts;
    opts.loop_op_budget = in.budget;
    opts.threads = threads;
    ap::trace::Span span("core.compile", "perfbench");
    span.arg("program", in.name);
    span.arg("threads", static_cast<std::int64_t>(threads));
    return ap::core::compile(prog, opts);
}

}  // namespace

Result compile_scale(const Args& args) {
    Result res;
    std::vector<Input> inputs;
    ap::core::PassTimes setup_times;

    // Set-up: generate the programs and compile each once at 1 thread,
    // checking verdicts and keeping them as the reference. It takes about
    // half a round; every fifth round repeats it.
    SetUp setup(5, [&] {
        inputs = make_inputs(args);
        setup_times = {};
        for (Input& in : inputs) {
            const ap::core::CompileReport r = compile_input(in, 1, nullptr);
            in.fingerprint = ap::serve::verdict_fingerprint(r);
            setup_times += r.times;
            if (in.corpus) {
                res.check(r.target_histogram() == in.corpus->expected_targets,
                          in.name + ": target histogram differs from expected_targets");
            } else {
                const std::string why = check_designed(in.generated, r);
                res.check(why.empty(), why);
            }
        }
    });
    setup();

    const std::array<unsigned, 2> thread_counts = {1, args.threads};
    std::array<std::vector<double>, 2> total_s;
    std::vector<double> parse_s;
    std::map<std::string, std::vector<double>> per_layer;  // serial-pass samples

    const Rounds rounds = run_rounds(args, setup, [&](int round, bool traced) {
        for (int k = 0; k < 2; ++k) {
            const std::size_t t = static_cast<std::size_t>((k + round) % 2);
            const bool serial = t == 0;
            const unsigned threads = thread_counts[t];
            ap::core::PassTimes times;
            double parse = 0;
            std::map<std::string, std::pair<double, std::size_t>> per_program;  // seconds, stmts
            const auto t0 = Clock::now();
            for (const Input& in : inputs) {
                ++res.attempted;
                try {
                    const ap::core::CompileReport r = compile_input(in, threads, &parse);
                    res.check(ap::serve::verdict_fingerprint(r) == in.fingerprint,
                              in.name + ": verdicts at " + std::to_string(threads) +
                                  " threads differ from the 1-thread set-up compile");
                    times += r.times;
                    per_program[in.slug].first += r.total_seconds();
                    per_program[in.slug].second += r.statements;
                } catch (const std::exception& ex) {
                    ++res.failed;
                    res.check(false, in.name + ": compile failed: " + ex.what());
                }
            }
            const double wall = seconds_since(t0);
            if (traced) continue;
            total_s[t].push_back(wall);
            if (!serial) continue;
            parse_s.push_back(parse);
            for (const PassSlug& p : kPasses) {
                per_layer["core.pass." + std::string(p.slug) + "_s"].push_back(times.sec(p.id));
                res.check(times.ops(p.id) == setup_times.ops(p.id),
                          std::string("pass ") + p.slug + ": symbolic ops differ from set-up");
            }
            for (const auto& [slug, sp] : per_program) {
                per_layer["core.us_per_stmt." + slug].push_back(
                    1e6 * sp.first / static_cast<double>(sp.second));
            }
        }
    });

    const double serial = median(total_s[0]);
    const double parallel = median(total_s[1]);
    res.set("setup_s", setup.median_s(), "s");
    res.set("work_s", serial, "s");  // the 1-thread pass, per round
    res.set("sched.parallel_compile_s", parallel, "s");
    res.set("peak_rss_mib", peak_rss_mib(), "MiB");

    res.set("frontend.parse_s", median(parse_s), "s");
    for (const auto& [name, samples] : per_layer) {
        res.set(name, median(samples), name.find("us_per_stmt") != std::string::npos ? "us" : "s");
    }
    for (const PassSlug& p : kPasses) {
        res.set("core.pass." + std::string(p.slug) + "_ops",
                static_cast<double>(setup_times.ops(p.id)), "count");
    }
    res.set("sched.speedup", serial / parallel, "ratio");
    finish_trace(args, rounds, res);
    return res;
}

}  // namespace pb
