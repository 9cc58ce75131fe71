#pragma once

// Seeded Mini-F programs in the two families of bench/abl_compile_scale.cpp.
// Every generated loop carries the verdict it was designed to get:
// elementwise loops are parallel, the V(I) = V(I) + V(I-1) recurrence is
// serial, and the framework dispatcher loop (it READs the deck) is serial.

#include <map>
#include <string>

#include "bench.hpp"
#include "core/compiler.hpp"

namespace pb {

enum class Family { Kernel, Framework };

struct GenProgram {
    std::string name;
    std::string source;
    /// Source line of every DO loop -> designed verdict (true = parallel).
    /// The compiler reports each loop once, in its own routine.
    std::map<int, bool> designed;

    [[nodiscard]] int designed_parallel() const {
        int n = 0;
        for (const auto& [line, parallel] : designed) n += parallel ? 1 : 0;
        return n;
    }
};

/// `routines` routines, each with three loops whose order, sizes and
/// constants come from `rng`: two parallel (elementwise and shifted
/// read) and one serial recurrence. Every program of one family and size
/// has the same loop kinds in the same numbers, so its compile work does
/// not depend on the seed. With `unique` >= 0 the array extents are
/// derived from it instead of drawn, so programs with distinct `unique`
/// pose distinct analysis queries (they miss an analysis cache).
[[nodiscard]] GenProgram generate(Family family, int routines, Rng& rng, const std::string& name,
                                  int unique = -1);

/// Empty when every loop of `report` got its designed verdict, else the
/// first mismatch.
[[nodiscard]] std::string check_designed(const GenProgram& program,
                                         const ap::core::CompileReport& report);

}  // namespace pb
