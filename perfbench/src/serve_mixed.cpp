// serve-mixed: an in-process compile service (one worker, a fresh
// persistent-cache directory per set-up) driven by one closed-loop client.
// A fixed share of the client's requests are new generated programs,
// which miss the cache and append to it; the rest repeat earlier sources
// and hit it. serve and its persistent cache do the work.

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "core/compiler.hpp"
#include "corpus/corpus.hpp"
#include "frontend/parser.hpp"
#include "gen.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "trace/trace.hpp"

namespace pb {

namespace {

namespace fs = std::filesystem;
using ap::trace::json::Value;

/// One server worker, and one client on the benchmark's own thread: with
/// two of each, the rounds' median wall time spread by 0.29 of its median
/// over five seeds on the reference host, because every request wakes
/// three threads that then wait for a CPU (README.md, "Run-to-run noise").
constexpr int kWorkers = 1;
constexpr int kPerRound = 10;  ///< requests per round
constexpr int kNewPerRound = 3;  ///< of which new programs: a 30% miss share
constexpr int kCorpora = 5;      ///< the base pool starts with the five corpora
/// Rounds per server generation. Each epoch starts with a set-up: a fresh
/// server on a fresh cache directory. So the cache's size, and with it
/// memory and the request mix, stay the same however long the run.
constexpr int kEpochRounds = 50;
constexpr double kDeadlineMs = 120'000;  ///< never reached: verdicts stay deterministic

/// One request source with the verdicts it must get back.
struct Source {
    std::string program;
    std::string source;
    std::uint64_t budget = 2'000'000;
    std::string fingerprint;  ///< expected; empty until a new program's first answer
    int loops_total = -1;     ///< designed (generated programs only)
    int loops_parallel = -1;
};

/// A compile in-process with the options the server's workers use.
ap::core::CompileReport bare_compile(const Source& s) {
    ap::ir::Program prog = ap::frontend::parse(s.source, s.program);
    ap::core::CompilerOptions opts;
    opts.threads = 1;
    opts.loop_op_budget = s.budget;
    return ap::core::compile(prog, opts);
}

Source from_generated(const GenProgram& g) {
    Source s;
    s.program = g.name;
    s.source = g.source;
    s.loops_total = static_cast<int>(g.designed.size());
    s.loops_parallel = g.designed_parallel();
    return s;
}

/// The shared base pool: the five corpora and four small generated
/// programs, with the fingerprints of their bare compiles.
std::vector<Source> base_pool(const Args& args) {
    std::vector<Source> pool;
    for (const ap::corpus::CorpusProgram* c : ap::corpus::all()) {
        Source s;
        s.program = c->name;
        s.source = c->source;
        s.budget = c->loop_op_budget;
        pool.push_back(std::move(s));
    }
    Rng rng(args.seed ^ 0x5E11EULL);
    for (int i = 0; i < 4; ++i) {
        pool.push_back(from_generated(generate(i % 2 ? Family::Framework : Family::Kernel, 8, rng,
                                               "BASE" + std::to_string(i))));
    }
    for (Source& s : pool) s.fingerprint = ap::serve::verdict_fingerprint_hex(bare_compile(s));
    return pool;
}

/// The client's seeded request stream, in rounds of kPerRound requests
/// with a fixed make-up: requests 0, 3 and 6 are new generated programs
/// (cache misses), 1 and 5 repeat a corpus, and the rest repeat a
/// generated program this epoch has already seen (a base program or one
/// of the earlier new ones).
class Stream {
public:
    Stream(const Args& args, const std::vector<Source>& base) : rng_(args.seed * 7919), base_(base) {
        new_epoch();
    }

    /// Forgets the new programs: a new epoch's server has not seen them.
    void new_epoch() {
        generated_.clear();
        for (const Source& s : base_) {
            if (s.loops_total >= 0) generated_.push_back(s);
        }
    }

    /// The source of request `k` (0-based over the whole run). The
    /// returned reference is valid until the next call.
    Source& next(std::int64_t k) {
        const std::int64_t i = k % kPerRound;
        if (i == 0 || i == 3 || i == 6) {
            const int id = static_cast<int>(k / kPerRound * kNewPerRound + i / 3);
            const Family f = id % 2 ? Family::Framework : Family::Kernel;
            const std::string name = "N" + std::to_string(id);
            generated_.push_back(from_generated(generate(f, 8, rng_, name, id)));
            return generated_.back();
        }
        if (i == 1 || i == 5) return base_[rng_.next() % kCorpora];
        return generated_[rng_.next() % generated_.size()];
    }

private:
    Rng rng_;
    std::vector<Source> base_;       ///< corpora first, then base generated programs
    std::vector<Source> generated_;  ///< generated programs this epoch has seen
};

/// One server generation: its directory (socket and persistent cache)
/// and the server.
struct Service {
    fs::path dir;
    std::unique_ptr<ap::serve::Server> server;
};

ap::serve::ClientOptions client_options(const std::string& socket, std::uint64_t jitter_seed) {
    ap::serve::ClientOptions o;
    o.socket_path = socket;
    o.timeout_ms = 60'000;
    o.jitter_seed = jitter_seed;
    return o;
}

/// Checks one response against its source; fills a new program's
/// fingerprint from its first (cache-missing) answer.
void check_response(const std::optional<Value>& resp, const std::string& error, Source& s,
                    Result& res, std::int64_t& failed) {
    const Value* status = resp ? resp->find("status") : nullptr;
    if (!status || !status->is_string() || status->as_string() != "ok") {
        ++failed;
        res.check(false, s.program + ": request failed: " + (resp ? resp->dump() : error));
        return;
    }
    const Value* fp = resp->find("fingerprint");
    const std::string got = fp && fp->is_string() ? fp->as_string() : "";
    if (s.fingerprint.empty()) s.fingerprint = got;
    res.check(got == s.fingerprint, s.program + ": verdict fingerprint differs from expected");
    if (s.loops_total >= 0) {
        const Value* total = resp->find("loops_total");
        const Value* par = resp->find("loops_parallel");
        res.check(total && par && total->as_int() == s.loops_total &&
                      par->as_int() == s.loops_parallel,
                  s.program + ": verdicts differ from the designed ones");
    }
}

}  // namespace

Result serve_mixed(const Args& args) {
    Result res;
    const fs::path root = fs::path(args.out_dir) / ("serve-" + std::to_string(::getpid()));
    std::vector<Source> base;
    Service svc;
    int generation = 0;

    // Ends the current epoch: stops the server and deletes its directory.
    const auto stop = [&](Service& s) {
        if (!s.server) return;
        s.server->stop();
        s.server.reset();
        std::error_code ec;
        fs::remove_all(s.dir, ec);
    };
    // Starts an epoch: a fresh server on a fresh cache directory, warmed
    // with one request per base source (checked like every other).
    const auto start = [&](Service& s) {
        s.dir = root / std::to_string(generation++);
        fs::create_directories(s.dir);
        ap::serve::ServerOptions opts;
        opts.socket_path = (s.dir / "sock").string();
        opts.cache_dir = (s.dir / "cache").string();
        opts.workers = kWorkers;
        s.server = std::make_unique<ap::serve::Server>(opts);
        std::string error;
        if (!s.server->start(&error)) throw std::runtime_error("server start: " + error);
        ap::serve::Client warm(client_options(opts.socket_path, 2));
        std::int64_t failed = 0;
        for (Source& src : base) {
            check_response(warm.compile(src.program, src.source, src.budget, kDeadlineMs, &error),
                           error, src, res, failed);
        }
        res.check(failed == 0, "warm-up requests failed");
    };

    std::unique_ptr<Stream> stream;
    std::unique_ptr<ap::serve::Client> client;
    double retries = 0;

    // Set-up, which starts every epoch: the base pool's bare compiles, then
    // a fresh server. Ending the previous epoch is not part of it.
    SetUp setup(
        kEpochRounds,
        [&] {
            base = base_pool(args);
            start(svc);
        },
        [&] {
            if (client) retries += static_cast<double>(client->client_stats().retries);
            client.reset();
            stop(svc);
            stream->new_epoch();
        });
    setup();

    stream = std::make_unique<Stream>(args, base);
    std::vector<double> all;     ///< latency (ms) of every untraced request
    std::vector<double> busy_s;  ///< wall time of untraced rounds

    const Rounds rounds = run_rounds(args, setup, [&](int, bool traced) {
        if (!client) {
            client = std::make_unique<ap::serve::Client>(
                client_options(svc.server->options().socket_path, 1));
        }
        ap::trace::Span span("serve.client", "perfbench");
        const auto t0 = Clock::now();
        for (int i = 0; i < kPerRound; ++i) {
            Source& s = stream->next(res.attempted++);
            std::string error;
            const auto r0 = Clock::now();
            const std::optional<Value> resp =
                client->compile(s.program, s.source, s.budget, kDeadlineMs, &error);
            if (!traced) all.push_back(1e3 * seconds_since(r0));
            check_response(resp, error, s, res, res.failed);
        }
        if (!traced) busy_s.push_back(seconds_since(t0));
    });
    if (client) retries += static_cast<double>(client->client_stats().retries);
    client.reset();
    stop(svc);
    std::error_code ec;
    fs::remove_all(root, ec);

    double busy = 0;
    for (double t : busy_s) busy += t;
    res.set("setup_s", setup.median_s(), "s");
    res.set("work_s", median(busy_s), "s");  // the round's 10 requests
    res.set("peak_rss_mib", peak_rss_mib(), "MiB");
    res.set("serve.p50_ms", percentile(all, 0.50), "ms");
    res.set("serve.p90_ms", percentile(all, 0.90), "ms");
    res.set("serve.compiles_per_s", static_cast<double>(all.size()) / busy, "1/s");
    res.set("serve.client_retries", retries, "count");

    finish_trace(args, rounds, res);
    if (args.trace) {
        // The daemon's own request-phase spans, from the kept traced round.
        std::map<std::string, std::vector<double>> phase_ms;
        const Value* events = res.trace.find("traceEvents");
        if (events && events->as_array()) {
            for (const Value& e : *events->as_array()) {
                const Value* name = e.find("name");
                const Value* dur = e.find("dur");
                if (name && dur && name->is_string()) {
                    phase_ms[name->as_string()].push_back(dur->as_double() / 1e3);
                }
            }
        }
        for (const char* phase : {"queue", "parse", "analyze", "respond"}) {
            const std::string span = std::string("serve.") + phase;
            res.set(span + "_ms", median(phase_ms[span]), "ms");
        }
        // The same request mix compiled in-process, without the server.
        Stream replay(args, base);
        std::vector<double> bare_ms;
        for (std::int64_t k = 0; k < 2 * kPerRound; ++k) {
            const Source& s = replay.next(k);
            const auto t0 = Clock::now();
            (void)bare_compile(s);
            bare_ms.push_back(1e3 * seconds_since(t0));
        }
        res.set("serve.bare_compile_p50_ms", median(bare_ms), "ms");
    }
    return res;
}

}  // namespace pb
