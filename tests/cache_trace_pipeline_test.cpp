// Trace-driven execution: the bridge between address-level workloads and
// the declared-level kernels of the ISA layer.
//
// A traced instruction carries an optional memory address; at execution
// time the cache hierarchy decides which level serves it, and the
// instruction is charged the current/stall signature of the *resolved*
// class (load_l1/l2/l3/dram).  Running the same pointer-chase loop both
// ways -- declared (kernel of load_l2) and traced (addresses over a 64 KB
// buffer) -- must produce matching profiles; that equivalence is what
// licenses the paper-style declared kernels everywhere else in the library.
//
// No shipped executable drives traces, so the pipeline lives here, next to
// the tests that compare it against the declared-level kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "cache/cache.hpp"
#include "cache/streams.hpp"
#include "chip/chip_model.hpp"
#include "isa/kernel.hpp"
#include "isa/pipeline.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace gb {
namespace {

/// One instruction of a trace.  For memory operations (`load`/`store` set)
/// the concrete class is resolved through the cache simulator; for
/// everything else `op` is charged as-is.
struct traced_instruction {
    opcode op = opcode::nop;
    std::uint64_t address = 0;
    bool is_memory = false;

    static traced_instruction compute(opcode op) {
        return traced_instruction{op, 0, false};
    }
    static traced_instruction load(std::uint64_t address) {
        return traced_instruction{opcode::load_l1, address, true};
    }
    static traced_instruction store(std::uint64_t address) {
        return traced_instruction{opcode::store_l1, address, true};
    }
};

/// Executes instruction traces against a cache hierarchy, producing the
/// same execution_profile the declared-level pipeline produces.
class trace_pipeline {
public:
    trace_pipeline(megahertz clock, cache_hierarchy& hierarchy);

    /// Run the trace `repetitions` times (the hierarchy warm from lap to
    /// lap, as a loop would be).
    [[nodiscard]] execution_profile execute(
        std::span<const traced_instruction> trace, int repetitions);

    [[nodiscard]] const cache_hierarchy& hierarchy() const {
        return hierarchy_;
    }

private:
    megahertz clock_;
    cache_hierarchy& hierarchy_;
};

/// Resolved load/store class for a hit level.
[[nodiscard]] opcode load_class_of(hit_level level);
[[nodiscard]] opcode store_class_of(hit_level level);

/// Build a pointer-chase trace: `loads` loads walking a shuffled
/// `buffer_bytes` buffer line by line, with `compute_per_load` int ops
/// between hops.
[[nodiscard]] std::vector<traced_instruction> make_chase_trace(
    std::int64_t buffer_bytes, int loads, int compute_per_load, rng& r);

/// Build a streaming trace: sequential 8-byte loads over `bytes`, with
/// `compute_per_load` FP ops between them (a stream kernel's inner loop).
[[nodiscard]] std::vector<traced_instruction> make_stream_trace(
    std::int64_t bytes, int compute_per_load);

// --- definitions ---------------------------------------------------------


opcode load_class_of(hit_level level) {
    switch (level) {
    case hit_level::l1: return opcode::load_l1;
    case hit_level::l2: return opcode::load_l2;
    case hit_level::l3: return opcode::load_l3;
    case hit_level::memory: return opcode::load_dram;
    }
    GB_ASSERT(false);
    return opcode::load_l1;
}

opcode store_class_of(hit_level level) {
    // The store buffer hides cache-resident store latency; only
    // memory-destined stores stall like their load counterparts.
    return level == hit_level::memory ? opcode::store_dram
                                      : opcode::store_l1;
}

trace_pipeline::trace_pipeline(megahertz clock, cache_hierarchy& hierarchy)
    : clock_(clock), hierarchy_(hierarchy) {
    GB_EXPECTS(clock.value > 0.0);
}

execution_profile trace_pipeline::execute(
    std::span<const traced_instruction> trace, int repetitions) {
    GB_EXPECTS(!trace.empty());
    GB_EXPECTS(repetitions >= 1);

    execution_profile profile;
    auto& counters = profile.counters;
    std::array<std::uint64_t, cpu_component_count> active_cycles{};
    const double cycle_ns = 1.0e3 / clock_.value;

    for (int rep = 0; rep < repetitions; ++rep) {
        for (const traced_instruction& instruction : trace) {
            opcode resolved = instruction.op;
            if (instruction.is_memory) {
                const bool is_store =
                    traits_of(instruction.op).is_store;
                const hit_level level =
                    hierarchy_.access(instruction.address, is_store);
                resolved = is_store ? store_class_of(level)
                                    : load_class_of(level);
            }
            const op_traits& t = traits_of(resolved);

            profile.current_trace.push_back(core_baseline_current_a +
                                            t.issue_current_a);
            ++counters.cycles;
            ++counters.instructions;
            active_cycles[static_cast<std::size_t>(cpu_component::fetch)] +=
                1;
            if (t.component != cpu_component::none &&
                t.component != cpu_component::fetch) {
                active_cycles[static_cast<std::size_t>(t.component)] += 1;
            }
            if (t.is_fp) {
                ++counters.fp_ops;
            } else if (resolved == opcode::int_alu ||
                       resolved == opcode::int_mul) {
                ++counters.int_ops;
            }
            if (resolved == opcode::branch) {
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
            counters.memory_bytes +=
                static_cast<std::uint64_t>(t.memory_bytes);

            std::uint64_t stalls =
                static_cast<std::uint64_t>(t.stall_cycles);
            if (t.memory_latency_ns > 0.0) {
                stalls += static_cast<std::uint64_t>(
                    std::ceil(t.memory_latency_ns / cycle_ns));
            }
            for (std::uint64_t s = 0; s < stalls; ++s) {
                profile.current_trace.push_back(core_baseline_current_a +
                                                t.stall_current_a);
                ++counters.cycles;
                if (t.component != cpu_component::none) {
                    active_cycles[static_cast<std::size_t>(t.component)] +=
                        1;
                }
            }
        }
    }

    for (std::size_t c = 0; c < active_cycles.size(); ++c) {
        profile.activity.utilization[c] =
            static_cast<double>(active_cycles[c]) /
            static_cast<double>(counters.cycles);
    }
    GB_ENSURES(profile.current_trace.size() == counters.cycles);
    return profile;
}

std::vector<traced_instruction> make_chase_trace(std::int64_t buffer_bytes,
                                                 int loads,
                                                 int compute_per_load,
                                                 rng& r) {
    GB_EXPECTS(loads >= 1);
    GB_EXPECTS(compute_per_load >= 0);
    const std::vector<std::uint64_t> order =
        make_chase_order(buffer_bytes, 64, r);
    std::vector<traced_instruction> trace;
    trace.reserve(static_cast<std::size_t>(loads) *
                  static_cast<std::size_t>(1 + compute_per_load));
    for (int i = 0; i < loads; ++i) {
        trace.push_back(traced_instruction::load(
            order[static_cast<std::size_t>(i) % order.size()]));
        for (int c = 0; c < compute_per_load; ++c) {
            trace.push_back(traced_instruction::compute(opcode::int_alu));
        }
    }
    return trace;
}

std::vector<traced_instruction> make_stream_trace(std::int64_t bytes,
                                                  int compute_per_load) {
    GB_EXPECTS(bytes >= 8);
    GB_EXPECTS(compute_per_load >= 0);
    std::vector<traced_instruction> trace;
    trace.reserve(static_cast<std::size_t>(bytes / 8) *
                  static_cast<std::size_t>(1 + compute_per_load));
    for (std::int64_t address = 0; address < bytes; address += 8) {
        trace.push_back(traced_instruction::load(
            static_cast<std::uint64_t>(address)));
        for (int c = 0; c < compute_per_load; ++c) {
            trace.push_back(traced_instruction::compute(opcode::fp_mul));
        }
    }
    return trace;
}

// --- tests ---------------------------------------------------------------


TEST(trace_pipeline_test, compute_only_trace_matches_declared_kernel) {
    cache_hierarchy hierarchy = cache_hierarchy::xgene2();
    trace_pipeline traced(nominal_core_frequency, hierarchy);
    const pipeline_model declared(nominal_core_frequency);

    std::vector<traced_instruction> trace;
    kernel k{"alu", {}};
    for (int i = 0; i < 64; ++i) {
        trace.push_back(traced_instruction::compute(opcode::int_alu));
        k.body.push_back(opcode::int_alu);
    }
    const execution_profile a = traced.execute(trace, 4);
    const execution_profile b = declared.execute(k, 256);
    EXPECT_DOUBLE_EQ(a.counters.ipc(), b.counters.ipc());
    EXPECT_NEAR(a.average_current_a(), b.average_current_a(), 1e-12);
}

TEST(trace_pipeline_test, chase_resolves_to_the_right_level) {
    // A 64 KB chase (fits L2, not L1): after the cold lap, loads resolve to
    // load_l2 -- the class the declared kernels assume.
    cache_hierarchy hierarchy = cache_hierarchy::xgene2();
    trace_pipeline pipeline(nominal_core_frequency, hierarchy);
    rng r(1);
    const std::vector<traced_instruction> trace =
        make_chase_trace(64 * 1024, 1024, 0, r);
    (void)pipeline.execute(trace, 1); // cold lap
    const execution_profile warm = pipeline.execute(trace, 3);
    EXPECT_GT(warm.counters.l2_hits, warm.counters.loads * 9 / 10);
    EXPECT_EQ(warm.counters.dram_accesses, 0u);
}

TEST(trace_pipeline_test, traced_and_declared_l2_kernels_agree) {
    // The equivalence that licenses declared kernels: a traced 64 KB chase
    // and a declared load_l2 loop produce the same stall structure.
    cache_hierarchy hierarchy = cache_hierarchy::xgene2();
    trace_pipeline traced(nominal_core_frequency, hierarchy);
    rng r(2);
    const std::vector<traced_instruction> trace =
        make_chase_trace(64 * 1024, 1024, 3, r);
    (void)traced.execute(trace, 1); // warm the hierarchy
    const execution_profile trace_profile = traced.execute(trace, 2);

    const pipeline_model declared(nominal_core_frequency);
    kernel k{"declared", {}};
    for (int i = 0; i < 64; ++i) {
        k.body.push_back(opcode::load_l2);
        for (int c = 0; c < 3; ++c) {
            k.body.push_back(opcode::int_alu);
        }
    }
    const execution_profile kernel_profile = declared.execute(k, 4096);

    EXPECT_NEAR(trace_profile.counters.ipc(), kernel_profile.counters.ipc(),
                0.05);
    EXPECT_NEAR(trace_profile.average_current_a(),
                kernel_profile.average_current_a(), 0.05);
}

TEST(trace_pipeline_test, streaming_trace_mostly_l1) {
    cache_hierarchy hierarchy = cache_hierarchy::xgene2();
    trace_pipeline pipeline(nominal_core_frequency, hierarchy);
    const std::vector<traced_instruction> trace =
        make_stream_trace(1024 * 1024, 1);
    const execution_profile profile = pipeline.execute(trace, 1);
    // 8-byte stride through 64-byte lines: ~7/8 of loads are L1 hits even
    // on a cold sweep.
    const double l1_loads = static_cast<double>(
        profile.counters.loads - profile.counters.l2_hits -
        profile.counters.l3_hits - profile.counters.dram_accesses);
    EXPECT_NEAR(l1_loads / static_cast<double>(profile.counters.loads),
                7.0 / 8.0, 0.02);
    EXPECT_GT(profile.counters.fp_ops, 0u);
}

TEST(trace_pipeline_test, dram_bound_trace_stalls) {
    // A scaled-down hierarchy (8 KB / 32 KB / 256 KB) keeps the
    // beyond-L3 working set -- and hence the simulated cycle count --
    // small while exercising the same resolution path.
    cache_hierarchy hierarchy(cache_config{8 * 1024, 64, 4},
                              cache_config{32 * 1024, 64, 8},
                              cache_config{256 * 1024, 64, 8});
    trace_pipeline pipeline(nominal_core_frequency, hierarchy);
    rng r(3);
    // 1 MB chase, every line touched per lap: 4x the scaled L3.
    const std::vector<traced_instruction> trace =
        make_chase_trace(1024 * 1024, 1024 * 1024 / 64, 0, r);
    (void)pipeline.execute(trace, 1);
    const execution_profile profile = pipeline.execute(trace, 1);
    EXPECT_GT(profile.counters.dram_accesses,
              profile.counters.loads * 9 / 10);
    EXPECT_LT(profile.counters.ipc(), 0.01);
}

TEST(trace_pipeline_test, store_resolution) {
    cache_hierarchy hierarchy = cache_hierarchy::xgene2();
    trace_pipeline pipeline(nominal_core_frequency, hierarchy);
    std::vector<traced_instruction> trace;
    trace.push_back(traced_instruction::load(0)); // warm the line
    trace.push_back(traced_instruction::store(0)); // L1-resident store
    const execution_profile profile = pipeline.execute(trace, 2);
    EXPECT_EQ(profile.counters.stores, 2u);
    // Second lap: both resolve within the hierarchy, no DRAM stores.
    EXPECT_LT(profile.counters.dram_accesses, 2u);
}

TEST(trace_pipeline_test, validates_inputs) {
    cache_hierarchy hierarchy = cache_hierarchy::xgene2();
    trace_pipeline pipeline(nominal_core_frequency, hierarchy);
    const std::vector<traced_instruction> empty;
    EXPECT_THROW((void)pipeline.execute(empty, 1), contract_violation);
    const std::vector<traced_instruction> one{
        traced_instruction::compute(opcode::nop)};
    EXPECT_THROW((void)pipeline.execute(one, 0), contract_violation);
}

} // namespace
} // namespace gb
