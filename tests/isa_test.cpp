#include "isa/instruction.hpp"
#include "isa/kernel.hpp"
#include "isa/pipeline.hpp"

#include <gtest/gtest.h>

#include <map>

#include "util/contracts.hpp"

namespace gb {
namespace {

TEST(instruction_test, all_opcodes_have_traits) {
    EXPECT_EQ(all_opcodes().size(), static_cast<std::size_t>(opcode_count));
    for (const opcode op : all_opcodes()) {
        const op_traits& t = traits_of(op);
        EXPECT_FALSE(t.name.empty());
        EXPECT_GE(t.issue_current_a, 0.0);
        EXPECT_GE(t.stall_cycles, 0);
        EXPECT_GE(t.memory_latency_ns, 0.0);
    }
}

TEST(instruction_test, current_hierarchy_is_sensible) {
    EXPECT_GT(traits_of(opcode::simd_mul).issue_current_a,
              traits_of(opcode::fp_mul).issue_current_a);
    EXPECT_GT(traits_of(opcode::fp_mul).issue_current_a,
              traits_of(opcode::int_alu).issue_current_a);
    EXPECT_GT(traits_of(opcode::int_alu).issue_current_a,
              traits_of(opcode::nop).issue_current_a);
}

TEST(instruction_test, memory_ops_target_their_levels) {
    EXPECT_EQ(traits_of(opcode::load_l1).component, cpu_component::l1d);
    EXPECT_EQ(traits_of(opcode::load_l2).component, cpu_component::l2);
    EXPECT_EQ(traits_of(opcode::load_l3).component, cpu_component::l3);
    EXPECT_EQ(traits_of(opcode::load_dram).component, cpu_component::dram);
    EXPECT_GT(traits_of(opcode::load_dram).memory_latency_ns, 0.0);
    EXPECT_EQ(traits_of(opcode::load_l2).memory_latency_ns, 0.0);
}

TEST(kernel_test, component_viruses_stress_their_component) {
    const std::map<cpu_component, cpu_component> expected{
        {cpu_component::l1d, cpu_component::l1d},
        {cpu_component::l2, cpu_component::l2},
        {cpu_component::fp_alu, cpu_component::fp_alu},
        {cpu_component::int_alu, cpu_component::int_alu},
    };
    const pipeline_model pipeline(megahertz::from_gigahertz(2.4));
    for (const auto& [target, dominant] : expected) {
        const kernel virus = make_component_virus(target);
        const execution_profile profile = pipeline.execute(virus, 2048);
        // The targeted component must be the busiest one (fetch aside).
        double best = 0.0;
        for (int c = 0; c < cpu_component_count; ++c) {
            if (static_cast<cpu_component>(c) == cpu_component::fetch) {
                continue;
            }
            best = std::max(best, profile.activity.utilization[
                static_cast<std::size_t>(c)]);
        }
        EXPECT_NEAR(profile.activity.of(dominant), best, 1e-12)
            << "virus " << virus.name;
    }
}

TEST(kernel_test, all_component_viruses_are_distinct) {
    const std::vector<kernel> viruses = all_component_viruses();
    EXPECT_EQ(viruses.size(), 6u);
    for (std::size_t i = 0; i < viruses.size(); ++i) {
        for (std::size_t j = i + 1; j < viruses.size(); ++j) {
            EXPECT_NE(viruses[i].name, viruses[j].name);
        }
    }
}

TEST(kernel_test, square_wave_shape) {
    const kernel k = make_square_wave_kernel(24, 24);
    ASSERT_EQ(k.body.size(), 48u);
    for (int i = 0; i < 24; ++i) {
        EXPECT_EQ(k.body[static_cast<std::size_t>(i)], opcode::simd_mul);
        EXPECT_EQ(k.body[static_cast<std::size_t>(24 + i)], opcode::nop);
    }
}

TEST(kernel_test, mix_kernel_apportionment) {
    const kernel k = make_mix_kernel(
        "mix", {opcode::int_alu, opcode::fp_mul}, {3.0, 1.0}, 100);
    ASSERT_EQ(k.body.size(), 100u);
    int ints = 0;
    for (const opcode op : k.body) {
        ints += op == opcode::int_alu ? 1 : 0;
    }
    EXPECT_EQ(ints, 75);
}

TEST(kernel_test, mix_kernel_validates) {
    EXPECT_THROW((void)make_mix_kernel("m", {}, {}, 10), contract_violation);
    EXPECT_THROW((void)make_mix_kernel("m", {opcode::nop}, {0.0}, 10),
                 contract_violation);
}

TEST(pipeline_test, cycle_accounting_no_stalls) {
    const pipeline_model pipeline(megahertz::from_gigahertz(2.4));
    kernel k{"alu", std::vector<opcode>(10, opcode::int_alu)};
    const execution_profile profile = pipeline.execute(k, 100);
    // 10 loop iterations of 10 single-cycle instructions.
    EXPECT_EQ(profile.counters.cycles, 100u);
    EXPECT_EQ(profile.counters.instructions, 100u);
    EXPECT_DOUBLE_EQ(profile.counters.ipc(), 1.0);
    EXPECT_EQ(profile.current_trace.size(), 100u);
}

TEST(pipeline_test, l2_miss_stall_cycles) {
    const pipeline_model pipeline(megahertz::from_gigahertz(2.4));
    kernel k{"l2", {opcode::load_l2}};
    const execution_profile profile = pipeline.execute(k, 8);
    // One load_l2 = 1 issue + 7 stall cycles.
    EXPECT_EQ(profile.counters.cycles, 8u);
    EXPECT_EQ(profile.counters.instructions, 1u);
    EXPECT_EQ(profile.counters.l2_hits, 1u);
}

TEST(pipeline_test, dram_latency_scales_with_frequency) {
    kernel k{"dram", {opcode::load_dram}};
    const execution_profile fast =
        pipeline_model(megahertz::from_gigahertz(2.4)).execute(k, 1);
    const execution_profile slow =
        pipeline_model(megahertz::from_gigahertz(1.2)).execute(k, 1);
    // 75 ns is 180 cycles at 2.4 GHz but only 90 at 1.2 GHz.
    EXPECT_EQ(fast.counters.cycles, 181u);
    EXPECT_EQ(slow.counters.cycles, 91u);
    // So IPC improves at the lower frequency for memory-bound code.
    EXPECT_GT(slow.counters.ipc(), fast.counters.ipc());
}

TEST(pipeline_test, current_trace_levels) {
    const pipeline_model pipeline(megahertz::from_gigahertz(2.4));
    kernel k{"simd", {opcode::simd_mul}};
    const execution_profile profile = pipeline.execute(k, 4);
    for (const double i : profile.current_trace) {
        EXPECT_DOUBLE_EQ(i, core_baseline_current_a +
                                traits_of(opcode::simd_mul).issue_current_a);
    }
}

TEST(pipeline_test, counters_classify_instruction_types) {
    const pipeline_model pipeline(megahertz::from_gigahertz(2.4));
    kernel k{"mix",
             {opcode::fp_mul, opcode::int_alu, opcode::branch,
              opcode::load_l1, opcode::store_l1, opcode::load_dram}};
    const execution_profile profile = pipeline.execute(k, 1);
    EXPECT_EQ(profile.counters.fp_ops, 1u);
    EXPECT_EQ(profile.counters.int_ops, 1u);
    EXPECT_EQ(profile.counters.branches, 1u);
    EXPECT_EQ(profile.counters.loads, 2u);
    EXPECT_EQ(profile.counters.stores, 1u);
    EXPECT_EQ(profile.counters.dram_accesses, 1u);
    EXPECT_EQ(profile.counters.memory_bytes, 8u + 8u + 64u);
}

TEST(pipeline_test, whole_loop_iterations_only) {
    const pipeline_model pipeline(megahertz::from_gigahertz(2.4));
    kernel k{"three", std::vector<opcode>(3, opcode::int_alu)};
    const execution_profile profile = pipeline.execute(k, 100);
    EXPECT_EQ(profile.counters.cycles % 3, 0u);
    EXPECT_GE(profile.counters.cycles, 100u);
}

TEST(pipeline_test, memory_bandwidth) {
    const pipeline_model pipeline(megahertz::from_gigahertz(2.4));
    kernel k{"stream", {opcode::load_dram}};
    const execution_profile profile = pipeline.execute(k, 1);
    // One 64-byte line per 181-cycle DRAM access.
    EXPECT_EQ(profile.counters.memory_bytes, 64u);
    EXPECT_EQ(profile.counters.cycles, 181u);
}

TEST(pipeline_test, activity_fractions_bounded) {
    const pipeline_model pipeline(megahertz::from_gigahertz(2.4));
    for (const kernel& virus : all_component_viruses()) {
        const execution_profile profile = pipeline.execute(virus, 1024);
        for (const double u : profile.activity.utilization) {
            EXPECT_GE(u, 0.0);
            EXPECT_LE(u, 1.0);
        }
    }
}

TEST(pipeline_test, empty_kernel_rejected) {
    const pipeline_model pipeline(megahertz::from_gigahertz(2.4));
    kernel empty{"empty", {}};
    EXPECT_THROW((void)pipeline.execute(empty, 10), contract_violation);
}

} // namespace
} // namespace gb
