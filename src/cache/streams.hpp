// Address-stream drivers and the bridge from buffer sizes to the ISA's
// memory instruction classes.
//
// The paper's cache viruses use pointer-chase buffers sized so every access
// hits exactly one level of the hierarchy.  `steady_state_level` runs that
// experiment on the simulator: chase a buffer until the hit pattern
// stabilizes and report where the accesses land.  `make_pointer_chase_kernel`
// then emits the ISA kernel whose declared level is the *measured* one --
// deriving the abstraction the isa layer builds on, instead of assuming it.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache.hpp"
#include "isa/kernel.hpp"
#include "util/rng.hpp"

namespace gb {

/// A randomized circular pointer-chase order over `buffer_bytes`, one hop
/// per cache line (the classic latency-benchmark layout: each line visited
/// exactly once per lap, in an order the prefetcher cannot guess).
[[nodiscard]] std::vector<std::uint64_t> make_chase_order(
    std::int64_t buffer_bytes, int line_bytes, rng& r);

/// Average per-access latency (cycles) and the dominant level after running
/// `laps` of the chase to steady state.
struct chase_measurement {
    double average_latency_cycles = 0.0;
    hit_level dominant_level = hit_level::l1;
    double dominant_fraction = 0.0;
};

[[nodiscard]] chase_measurement measure_chase(cache_hierarchy& hierarchy,
                                              std::int64_t buffer_bytes,
                                              int laps, rng& r);

/// The level where a steady-state chase over `buffer_bytes` is served.
[[nodiscard]] hit_level steady_state_level(std::int64_t buffer_bytes);

/// ISA kernel whose loads target the level a buffer of this size actually
/// hits on the simulated X-Gene2 hierarchy.
[[nodiscard]] kernel make_pointer_chase_kernel(std::int64_t buffer_bytes,
                                               int loads_per_iteration = 32);

} // namespace gb
