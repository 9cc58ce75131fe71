// seismic-native: the native seismic suite (datagen, stack, fft3d,
// findiff) in the Serial, OuterParallel and Mpi (4 ranks) flavors, each
// run_<phase> call timed on the wall clock. seismic, simd and mpisim do
// the work; no compiler or interpreter runs.

#include <array>
#include <cmath>

#include "bench.hpp"
#include "seismic/seismic.hpp"
#include "trace/trace.hpp"

namespace pb {

namespace {

using ap::seismic::Deck;
using ap::seismic::Flavor;
using ap::seismic::PhaseResult;

constexpr int kRanks = 4;

struct Phase {
    const char* slug;
    PhaseResult (*run)(const Deck&, Flavor, int, const ap::seismic::FaultTolerance&);
    double tolerance;  ///< relative checksum tolerance against Serial; 0 means equal
};
// The tolerances are the ones tests/seismic_test.cpp holds the flavors to:
// stack's checksum is bit-identical in every flavor.
const std::array<Phase, 4> kPhases = {{
    {"datagen", &ap::seismic::run_datagen, 1e-9},
    {"stack", &ap::seismic::run_stack, 0.0},
    {"fft3d", &ap::seismic::run_fft3d, 1e-6},
    {"findiff", &ap::seismic::run_findiff, 1e-9},
}};

struct FlavorSlug {
    Flavor flavor;
    const char* slug;
};
constexpr std::array<FlavorSlug, 3> kFlavors = {{
    {Flavor::Serial, "serial"}, {Flavor::OuterParallel, "omp"}, {Flavor::Mpi, "mpi"}}};

/// Between Deck::small() and Deck::medium(): about three times small's
/// work in every phase, a quarter of medium's.
Deck bench_deck() {
    Deck d = Deck::small();
    d.name = "PERFBENCH";
    d.nshots = 48;
    d.nsamples = 750;
    d.nx = 128;
    d.grid = 448;
    d.timesteps = 308;
    return d;
}

}  // namespace

Result seismic_native(const Args& args) {
    Result res;
    const Deck deck = args.selfcheck ? Deck::tiny() : bench_deck();

    // Set-up: synthesize the deck's input traces and warm the thread pool
    // and the rank threads on the tiny deck. Its nine samples are all taken
    // before the rounds: repeated between rounds, its transient 37 MB of
    // traces left the process's peak RSS at 38 MiB in some runs and 50 MiB
    // in others.
    SetUp setup(0, [&] {
        std::vector<double> traces = ap::seismic::synthesize_traces(deck);
        res.check(!traces.empty(), "synthesize_traces returned no traces");
        for (const FlavorSlug& f : kFlavors) (void)ap::seismic::run_suite(Deck::tiny(), f.flavor, kRanks);
    });
    for (int i = 0; i < (args.selfcheck ? 1 : 9); ++i) setup();

    // Per round: each flavor's four phases; per phase, the first round's
    // checksum per flavor, which later rounds must repeat exactly.
    std::array<std::vector<double>, 3> flavor_s;
    std::map<std::string, std::vector<double>> phase_s;
    std::array<std::array<double, 3>, 4> first_checksum{};
    std::vector<double> work_s;  ///< Serial plus OuterParallel, per round

    const Rounds rounds = run_rounds(args, setup, [&](int round, bool traced) {
        std::array<std::array<double, 3>, 4> checksum{};
        std::array<double, 3> totals{};
        for (std::size_t k = 0; k < kFlavors.size(); ++k) {
            const std::size_t f = (k + static_cast<std::size_t>(round)) % kFlavors.size();
            for (std::size_t p = 0; p < kPhases.size(); ++p) {
                const std::string label =
                    std::string("seismic.") + kPhases[p].slug + "." + kFlavors[f].slug;
                ++res.attempted;
                try {
                    ap::trace::Span span(label, "perfbench");
                    const auto t0 = Clock::now();
                    const PhaseResult r = kPhases[p].run(deck, kFlavors[f].flavor, kRanks, {});
                    const double t = seconds_since(t0);
                    totals[f] += t;
                    if (!traced) phase_s[label + "_s"].push_back(t);
                    checksum[p][f] = r.checksum;
                    res.check(r.attempts == 1 && !r.degraded,
                              label + ": phase was retried or degraded");
                } catch (const std::exception& ex) {
                    ++res.failed;
                    res.check(false, label + " failed: " + ex.what());
                }
            }
        }
        for (std::size_t p = 0; p < kPhases.size(); ++p) {
            const double serial = checksum[p][0];
            res.check(serial != 0, std::string(kPhases[p].slug) + ": zero serial checksum");
            for (std::size_t f = 0; f < kFlavors.size(); ++f) {
                res.check(std::fabs(checksum[p][f] - serial) <= kPhases[p].tolerance * std::fabs(serial),
                          std::string(kPhases[p].slug) + ": " + kFlavors[f].slug +
                              " checksum differs from serial");
                if (round == 0) first_checksum[p][f] = checksum[p][f];
                res.check(checksum[p][f] == first_checksum[p][f],
                          std::string(kPhases[p].slug) + ": " + kFlavors[f].slug +
                              " checksum changed between rounds");
            }
        }
        if (!traced) {
            for (std::size_t f = 0; f < kFlavors.size(); ++f) flavor_s[f].push_back(totals[f]);
            work_s.push_back(totals[0] + totals[1]);
        }
    });

    res.set("setup_s", setup.median_s(), "s");
    // work_s leaves the Mpi flavor out: whether its ranks run in parallel
    // depends on the host's thread placement (README.md, "Run-to-run noise").
    res.set("work_s", median(work_s), "s");
    for (std::size_t f = 0; f < kFlavors.size(); ++f) {
        res.set(std::string("seismic.") + kFlavors[f].slug + "_s", median(flavor_s[f]), "s");
    }
    res.set("peak_rss_mib", peak_rss_mib(), "MiB");
    for (const auto& [name, samples] : phase_s) res.set(name, median(samples), "s");
    finish_trace(args, rounds, res);
    return res;
}

}  // namespace pb
