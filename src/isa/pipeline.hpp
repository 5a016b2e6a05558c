// In-order pipeline timing/activity model.
//
// Executes a kernel in a loop and produces everything the guardband study
// needs from a workload:
//   * a per-cycle current trace (the PDN input),
//   * performance counters (the Vmin predictor's features),
//   * per-component activity factors (for attributing low-voltage failures
//     to cache SRAM vs pipeline logic).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "isa/kernel.hpp"
#include "util/units.hpp"

namespace gb {

/// Hardware event counts over one execution, as exposed by PMU-style
/// counters on the real machine.
struct perf_counters {
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t int_ops = 0;
    std::uint64_t fp_ops = 0;
    std::uint64_t branches = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t l2_hits = 0;
    std::uint64_t l3_hits = 0;
    std::uint64_t dram_accesses = 0;
    std::uint64_t memory_bytes = 0;

    [[nodiscard]] double ipc() const;
    [[nodiscard]] double fp_fraction() const;
    [[nodiscard]] double memory_intensity() const; ///< DRAM accesses per kilo-instruction
};

/// Fraction of cycles each CPU component was active, indexed by
/// cpu_component.
struct component_activity {
    std::array<double, cpu_component_count> utilization{};

    [[nodiscard]] double of(cpu_component component) const {
        return utilization[static_cast<std::size_t>(component)];
    }
};

/// Everything measured from executing a kernel.
struct execution_profile {
    perf_counters counters;
    component_activity activity;
    /// Per-cycle core current (amperes at nominal V/F), covering an integral
    /// number of loop iterations so the trace tiles periodically.
    std::vector<double> current_trace;

    [[nodiscard]] double average_current_a() const;
};

/// Single-issue in-order pipeline with blocking misses.  Memory latencies for
/// DRAM-reaching ops are fixed in wall-clock time, so their cycle cost scales
/// with core frequency (lower frequency hides memory latency -- the effect
/// that makes frequency scaling attractive for memory-bound workloads).
class pipeline_model {
public:
    explicit pipeline_model(megahertz clock);

    /// Execute the kernel for at least `min_cycles` cycles, rounded up to a
    /// whole number of loop iterations.
    ///
    /// The loop body is strictly periodic (no inter-iteration state), so the
    /// implementation simulates exactly one iteration and tiles its current
    /// trace and counter deltas across the iteration count.  Counters are
    /// integer multiples and the trace is a byte-exact repetition, so the
    /// profile is bitwise-identical to a cycle-by-cycle walk (held by
    /// kernel_equivalence_test over randomized kernels).
    [[nodiscard]] execution_profile execute(const kernel& k,
                                            std::uint64_t min_cycles) const;

    [[nodiscard]] megahertz clock() const { return clock_; }

private:
    megahertz clock_;
};

} // namespace gb
