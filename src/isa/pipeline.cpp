#include "isa/pipeline.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace gb {

double perf_counters::ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) /
                             static_cast<double>(cycles);
}

double perf_counters::fp_fraction() const {
    return instructions == 0 ? 0.0
                             : static_cast<double>(fp_ops) /
                                   static_cast<double>(instructions);
}

double perf_counters::memory_intensity() const {
    return instructions == 0 ? 0.0
                             : 1000.0 * static_cast<double>(dram_accesses) /
                                   static_cast<double>(instructions);
}

double execution_profile::average_current_a() const {
    if (current_trace.empty()) {
        return 0.0;
    }
    double sum = 0.0;
    for (const double i : current_trace) {
        sum += i;
    }
    return sum / static_cast<double>(current_trace.size());
}

pipeline_model::pipeline_model(megahertz clock) : clock_(clock) {
    GB_EXPECTS(clock.value > 0.0);
}

execution_profile pipeline_model::execute(const kernel& k,
                                          std::uint64_t min_cycles) const {
    GB_EXPECTS(!k.empty());
    GB_EXPECTS(min_cycles > 0);

    execution_profile profile;
    auto& counters = profile.counters;
    std::array<std::uint64_t, cpu_component_count> active_cycles{};

    const double cycle_ns = 1.0e3 / clock_.value; // MHz -> ns per cycle

    // One loop iteration carries no state into the next (the pipeline is
    // in-order with blocking misses), so the reference's cycle-by-cycle walk
    // is strictly periodic.  Simulate exactly one body pass, then tile its
    // trace and scale its integer counters by the iteration count: same
    // doubles, same integer totals, bitwise-identical profile.
    for (const opcode op : k.body) {
        const op_traits& t = traits_of(op);

        // Issue cycle.
        profile.current_trace.push_back(core_baseline_current_a +
                                        t.issue_current_a);
        ++counters.cycles;
        ++counters.instructions;
        active_cycles[static_cast<std::size_t>(cpu_component::fetch)] += 1;
        if (t.component != cpu_component::none &&
            t.component != cpu_component::fetch) {
            active_cycles[static_cast<std::size_t>(t.component)] += 1;
        }

        if (t.is_fp) {
            ++counters.fp_ops;
        } else if (op == opcode::int_alu || op == opcode::int_mul) {
            ++counters.int_ops;
        }
        if (op == opcode::branch) {
            ++counters.branches;
        }
        if (t.is_load) {
            ++counters.loads;
        }
        if (t.is_store) {
            ++counters.stores;
        }
        if (t.component == cpu_component::l2) {
            ++counters.l2_hits;
        }
        if (t.component == cpu_component::l3) {
            ++counters.l3_hits;
        }
        if (t.component == cpu_component::dram) {
            ++counters.dram_accesses;
        }
        counters.memory_bytes += static_cast<std::uint64_t>(t.memory_bytes);

        // Stall cycles: fixed-cycle stalls (cache misses, dividers) plus
        // wall-clock memory latency converted at the current frequency.
        std::uint64_t stalls = static_cast<std::uint64_t>(t.stall_cycles);
        if (t.memory_latency_ns > 0.0) {
            stalls += static_cast<std::uint64_t>(
                std::ceil(t.memory_latency_ns / cycle_ns));
        }
        for (std::uint64_t s = 0; s < stalls; ++s) {
            profile.current_trace.push_back(core_baseline_current_a +
                                            t.stall_current_a);
            ++counters.cycles;
            if (t.component != cpu_component::none) {
                active_cycles[static_cast<std::size_t>(t.component)] += 1;
            }
        }
    }

    // The reference re-checks `cycles < min_cycles` before each whole body
    // pass, so the iteration count is the ceiling division.
    const std::uint64_t block_cycles = counters.cycles;
    const std::uint64_t iterations =
        (min_cycles + block_cycles - 1) / block_cycles;
    const std::size_t block_size = profile.current_trace.size();
    profile.current_trace.resize(block_size *
                                 static_cast<std::size_t>(iterations));
    double* trace = profile.current_trace.data();
    for (std::uint64_t it = 1; it < iterations; ++it) {
        std::copy_n(trace, block_size,
                    trace + static_cast<std::size_t>(it) * block_size);
    }
    counters.cycles *= iterations;
    counters.instructions *= iterations;
    counters.int_ops *= iterations;
    counters.fp_ops *= iterations;
    counters.branches *= iterations;
    counters.loads *= iterations;
    counters.stores *= iterations;
    counters.l2_hits *= iterations;
    counters.l3_hits *= iterations;
    counters.dram_accesses *= iterations;
    counters.memory_bytes *= iterations;
    for (std::uint64_t& active : active_cycles) {
        active *= iterations;
    }

    for (std::size_t c = 0; c < active_cycles.size(); ++c) {
        profile.activity.utilization[c] =
            static_cast<double>(active_cycles[c]) /
            static_cast<double>(counters.cycles);
    }
    GB_ENSURES(profile.current_trace.size() == counters.cycles);
    return profile;
}

} // namespace gb
