#include "gen.hpp"

#include <sstream>

namespace pb {

namespace {

/// Builds source text line by line, so each DO loop's line is known.
class Emitter {
public:
    void line(const std::string& text) {
        os_ << text << '\n';
        ++line_;
    }
    /// Emits a DO loop with a one-statement body and records its verdict.
    void loop(const std::string& header, const std::string& body, bool parallel,
              std::map<int, bool>& designed) {
        designed[line_ + 1] = parallel;
        line("  DO " + header);
        line("    " + body);
        line("  END DO");
    }
    [[nodiscard]] std::string str() const { return os_.str(); }

private:
    std::ostringstream os_;
    int line_ = 0;
};

std::string constant(Rng& rng) {
    return std::to_string(rng.uniform(1, 9)) + "." + std::to_string(rng.uniform(0, 9));
}

// The three loop kinds of a routine, in seeded order.
enum class Kind { Elementwise, Shifted, Recurrence };

std::vector<Kind> loop_order(Rng& rng) {
    std::vector<Kind> kinds = {Kind::Elementwise, Kind::Shifted, Kind::Recurrence};
    rng.shuffle(kinds);
    return kinds;
}

void kernel_routine(Emitter& e, int r, int size, Rng& rng, std::map<int, bool>& designed) {
    e.line("SUBROUTINE K" + std::to_string(r));
    e.line("  PARAMETER (N = " + std::to_string(size) + ")");
    e.line("  REAL A(N), B(N)");
    e.line("  INTEGER I");
    for (Kind k : loop_order(rng)) {
        switch (k) {
            case Kind::Elementwise:
                e.loop("I = 1, N", "A(I) = B(I) * " + constant(rng) + " + " + constant(rng), true,
                       designed);
                break;
            case Kind::Shifted:
                e.loop("I = 2, N", "B(I) = A(I) + A(I - 1) * " + constant(rng), true, designed);
                break;
            case Kind::Recurrence:
                e.loop("I = 2, N", "B(I) = B(I) + B(I - 1)", false, designed);
                break;
        }
    }
    e.line("  RETURN");
    e.line("END");
}

void framework_module(Emitter& e, int r, Rng& rng, std::map<int, bool>& designed) {
    e.line("SUBROUTINE M" + std::to_string(r) + "(V, W, N)");
    e.line("  INTEGER N, I");
    e.line("  REAL V(N), W(N)");
    for (Kind k : loop_order(rng)) {
        switch (k) {
            case Kind::Elementwise:
                e.loop("I = 1, N", "V(I) = V(I) * " + constant(rng) + " + " + constant(rng), true,
                       designed);
                break;
            case Kind::Shifted:
                e.loop("I = 2, N", "W(I) = W(I) * " + constant(rng) + " + " + constant(rng), true,
                       designed);
                break;
            case Kind::Recurrence:
                e.loop("I = 2, N", "V(I) = V(I) + V(I - 1)", false, designed);
                break;
        }
    }
    e.line("  RETURN");
    e.line("END");
}

}  // namespace

GenProgram generate(Family family, int routines, Rng& rng, const std::string& name, int unique) {
    static const int kSizes[] = {48, 64, 96, 128};
    const auto size = [&](int r) {
        return unique >= 0 ? 256 + 64 * unique + r : kSizes[rng.next() % 4];
    };
    GenProgram p;
    p.name = name;
    Emitter e;
    std::vector<int> order(static_cast<std::size_t>(routines));
    for (int r = 0; r < routines; ++r) order[static_cast<std::size_t>(r)] = r;
    rng.shuffle(order);
    if (family == Family::Kernel) {
        e.line("PROGRAM " + name);
        for (int r : order) e.line("  CALL K" + std::to_string(r));
        e.line("END");
        for (int r = 0; r < routines; ++r) kernel_routine(e, r, size(r), rng, p.designed);
    } else {
        // Each module gets two disjoint sections of the shared COMMON
        // array, laid out from a seeded section length.
        const int len = unique >= 0 ? size(0) : 40 + rng.uniform(0, 24);
        e.line("PROGRAM " + name);
        e.line("  COMMON /WORK/ RA(" + std::to_string(2 * routines * len) + ")");
        e.line("  INTEGER ICODE, IM, NMODS");
        e.line("  READ *, NMODS");
        p.designed[5] = false;  // the dispatcher loop READs the deck
        e.line("  DO IM = 1, NMODS");
        e.line("    READ *, ICODE");
        for (int r : order) {
            const int off = 2 * r * len + 1;
            e.line("    IF (ICODE .EQ. " + std::to_string(r) + ") THEN");
            e.line("      CALL M" + std::to_string(r) + "(RA(" + std::to_string(off) + "), RA(" +
                   std::to_string(off + len) + "), " + std::to_string(len) + ")");
            e.line("    END IF");
        }
        e.line("  END DO");
        e.line("END");
        for (int r = 0; r < routines; ++r) framework_module(e, r, rng, p.designed);
    }
    p.source = e.str();
    return p;
}

std::string check_designed(const GenProgram& program, const ap::core::CompileReport& report) {
    if (report.loops.size() != program.designed.size()) {
        return program.name + ": " + std::to_string(report.loops.size()) + " loops reported, " +
               std::to_string(program.designed.size()) + " designed";
    }
    for (const ap::core::LoopReport& loop : report.loops) {
        const auto it = program.designed.find(loop.loc.line);
        if (it == program.designed.end()) {
            return program.name + ": unexpected loop at line " + std::to_string(loop.loc.line);
        }
        if (it->second != loop.parallel) {
            return program.name + ": loop at line " + std::to_string(loop.loc.line) + " in " +
                   loop.routine + " designed " + (it->second ? "parallel" : "serial") + ", got " +
                   (loop.parallel ? "parallel" : "serial: " + loop.reason);
        }
    }
    return {};
}

}  // namespace pb
