#include "chip/chip_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "isa/kernel.hpp"
#include "isa/pipeline.hpp"
#include "util/contracts.hpp"
#include "workloads/cpu_profiles.hpp"

namespace gb {
namespace {

class chip_model_test : public ::testing::Test {
protected:
    chip_model ttt_{make_ttt_chip(), make_xgene2_pdn()};
    pipeline_model pipeline_{nominal_core_frequency};

    execution_profile profile_of(const kernel& k) {
        return pipeline_.execute(k, 8192);
    }
};

TEST_F(chip_model_test, vmin_above_intrinsic_below_nominal) {
    for (const cpu_benchmark& b : spec2006_suite()) {
        const execution_profile profile = profile_of(b.loop);
        const vmin_analysis analysis = ttt_.analyze_single(profile, 6);
        EXPECT_GT(analysis.vmin, ttt_.config().v_crit_logic) << b.name;
        EXPECT_LT(analysis.vmin, nominal_pmd_voltage) << b.name;
    }
}

TEST_F(chip_model_test, weaker_core_needs_more_voltage) {
    const execution_profile profile =
        profile_of(find_cpu_benchmark("milc").loop);
    // Core 0 has the largest offset on TTT, core 6 the smallest.
    const vmin_analysis weak = ttt_.analyze_single(profile, 0);
    const vmin_analysis strong = ttt_.analyze_single(profile, 6);
    EXPECT_GT(weak.vmin, strong.vmin);
    EXPECT_NEAR(weak.vmin.value - strong.vmin.value, 40.0, 1e-9);
}

TEST_F(chip_model_test, frequency_relief_lowers_vmin) {
    const kernel& loop = find_cpu_benchmark("gromacs").loop;
    const execution_profile at_full = profile_of(loop);
    const execution_profile at_half =
        pipeline_model(megahertz::from_gigahertz(1.2)).execute(loop, 8192);
    const vmin_analysis full =
        ttt_.analyze_single(at_full, 6, nominal_core_frequency);
    const vmin_analysis half =
        ttt_.analyze_single(at_half, 6, megahertz::from_gigahertz(1.2));
    EXPECT_LT(half.vmin, full.vmin);
    EXPECT_GT(full.vmin.value - half.vmin.value, 50.0);
}

TEST_F(chip_model_test, cache_virus_fails_in_sram) {
    const execution_profile cache_heavy =
        profile_of(make_component_virus(cpu_component::l1d));
    const vmin_analysis analysis = ttt_.analyze_single(cache_heavy, 6);
    EXPECT_EQ(analysis.path, failure_path::sram);
}

TEST_F(chip_model_test, alu_virus_fails_in_logic) {
    const execution_profile alu_heavy =
        profile_of(make_component_virus(cpu_component::fp_alu));
    const vmin_analysis analysis = ttt_.analyze_single(alu_heavy, 6);
    EXPECT_EQ(analysis.path, failure_path::logic);
}

TEST_F(chip_model_test, more_instances_raise_chip_vmin) {
    const execution_profile profile =
        profile_of(make_square_wave_kernel(24, 24));
    std::vector<core_assignment> one{{6, &profile, nominal_core_frequency}};
    std::vector<core_assignment> eight;
    for (int c = 0; c < cores_per_chip; ++c) {
        eight.push_back({c, &profile, nominal_core_frequency});
    }
    const vmin_analysis single = ttt_.analyze(one, 7);
    const vmin_analysis all = ttt_.analyze(eight, 7);
    // More aligned current through the global loop plus weaker cores.
    EXPECT_GT(all.vmin, single.vmin);
    EXPECT_GT(all.droop, single.droop);
}

TEST_F(chip_model_test, core_requirements_one_per_assignment) {
    const execution_profile profile =
        profile_of(find_cpu_benchmark("namd").loop);
    std::vector<core_assignment> assignments;
    for (int c = 0; c < 4; ++c) {
        assignments.push_back({c, &profile, nominal_core_frequency});
    }
    const std::vector<vmin_analysis> reqs =
        ttt_.core_requirements(assignments, 5);
    ASSERT_EQ(reqs.size(), 4u);
    // Same workload everywhere: requirement ordering equals offset ordering.
    EXPECT_GT(reqs[0].vmin, reqs[1].vmin);
    EXPECT_GT(reqs[1].vmin, reqs[2].vmin);
    EXPECT_GT(reqs[2].vmin, reqs[3].vmin);
}

TEST_F(chip_model_test, analyze_is_worst_core_requirement) {
    const execution_profile profile =
        profile_of(find_cpu_benchmark("bwaves").loop);
    std::vector<core_assignment> assignments;
    for (int c = 0; c < cores_per_chip; ++c) {
        assignments.push_back({c, &profile, nominal_core_frequency});
    }
    const vmin_analysis chip = ttt_.analyze(assignments, 3);
    double worst = 0.0;
    for (const vmin_analysis& req :
         ttt_.core_requirements(assignments, 3)) {
        worst = std::max(worst, req.vmin.value);
    }
    EXPECT_DOUBLE_EQ(chip.vmin.value, worst);
}

TEST_F(chip_model_test, run_above_vmin_is_ok) {
    const execution_profile profile =
        profile_of(find_cpu_benchmark("mcf").loop);
    std::vector<core_assignment> one{{6, &profile, nominal_core_frequency}};
    rng r(1);
    const run_evaluation eval =
        ttt_.evaluate_run(one, nominal_pmd_voltage, 1, r);
    EXPECT_EQ(eval.outcome, run_outcome::ok);
    EXPECT_GT(eval.margin.value, 0.0);
}

TEST_F(chip_model_test, run_far_below_vmin_crashes) {
    const execution_profile profile =
        profile_of(find_cpu_benchmark("milc").loop);
    std::vector<core_assignment> one{{6, &profile, nominal_core_frequency}};
    const vmin_analysis analysis = ttt_.analyze(one, 2);
    rng r(2);
    const run_evaluation eval = ttt_.evaluate_run(
        one, analysis.vmin - millivolts{30.0}, 2, r);
    EXPECT_EQ(eval.outcome, run_outcome::crash);
}

TEST_F(chip_model_test, marginal_region_mixes_outcomes) {
    const execution_profile profile =
        profile_of(find_cpu_benchmark("bwaves").loop);
    std::vector<core_assignment> one{{6, &profile, nominal_core_frequency}};
    const vmin_analysis analysis = ttt_.analyze(one, 3);
    rng r(3);
    int ok = 0;
    int failing = 0;
    for (int i = 0; i < 300; ++i) {
        const run_evaluation eval = ttt_.evaluate_run(
            one, analysis.vmin - millivolts{4.0}, 3, r);
        if (eval.outcome == run_outcome::ok) {
            ++ok;
        } else {
            ++failing;
        }
    }
    // 4 mV below Vmin with 2.5 mV run noise: mostly failures, some passes.
    EXPECT_GT(failing, 200);
    EXPECT_GT(ok, 0);
}

TEST_F(chip_model_test, run_noise_makes_runs_differ) {
    const execution_profile profile =
        profile_of(find_cpu_benchmark("namd").loop);
    std::vector<core_assignment> one{{6, &profile, nominal_core_frequency}};
    rng r(4);
    const run_evaluation a =
        ttt_.evaluate_run(one, nominal_pmd_voltage, 4, r);
    const run_evaluation b =
        ttt_.evaluate_run(one, nominal_pmd_voltage, 4, r);
    EXPECT_NE(a.margin.value, b.margin.value);
}

TEST_F(chip_model_test, combined_trace_includes_idle_cores) {
    const execution_profile profile =
        profile_of(find_cpu_benchmark("mcf").loop);
    std::vector<core_assignment> one{{0, &profile, nominal_core_frequency}};
    const std::vector<double> trace = ttt_.combined_trace(one, 9);
    for (const double i : trace) {
        EXPECT_GE(i, 8.0 * core_baseline_current_a - 1e-12);
    }
}

TEST_F(chip_model_test, disruption_classification) {
    EXPECT_FALSE(is_disruption(run_outcome::ok));
    EXPECT_FALSE(is_disruption(run_outcome::corrected_error));
    EXPECT_TRUE(is_disruption(run_outcome::uncorrectable_error));
    EXPECT_TRUE(is_disruption(run_outcome::silent_data_corruption));
    EXPECT_TRUE(is_disruption(run_outcome::crash));
    EXPECT_TRUE(is_disruption(run_outcome::hang));
}

TEST_F(chip_model_test, outcome_probabilities_match_sampled_frequencies) {
    const execution_profile profile =
        profile_of(find_cpu_benchmark("bwaves").loop);
    std::vector<core_assignment> one{{6, &profile, nominal_core_frequency}};
    const vmin_analysis analysis = ttt_.analyze(one, 3);
    const millivolts supply = analysis.vmin - millivolts{3.0};
    const outcome_distribution d = ttt_.outcome_probabilities(one, supply, 3);
    EXPECT_NEAR(d.total(), 1.0, 1e-9);

    rng r(17);
    const int trials = 4000;
    int ok = 0;
    int disruptions = 0;
    for (int i = 0; i < trials; ++i) {
        const run_evaluation eval = ttt_.evaluate_run(one, supply, 3, r);
        ok += eval.outcome == run_outcome::ok ? 1 : 0;
        disruptions += is_disruption(eval.outcome) ? 1 : 0;
    }
    // Monte-Carlo frequencies converge on the closed-form mass function.
    EXPECT_NEAR(static_cast<double>(ok) / trials, d.p_ok, 0.05);
    EXPECT_NEAR(static_cast<double>(disruptions) / trials, d.p_disruption(),
                0.05);
}

TEST_F(chip_model_test, sdc_probability_rises_as_supply_drops) {
    const execution_profile profile =
        profile_of(find_cpu_benchmark("mcf").loop);
    std::vector<core_assignment> one{{2, &profile, nominal_core_frequency}};
    const vmin_analysis analysis = ttt_.analyze(one, 5);
    // Far above Vmin the SDC region is unreachable.
    EXPECT_NEAR(ttt_.sdc_probability(one, nominal_pmd_voltage, 5), 0.0,
                1e-6);
    const double shallow =
        ttt_.sdc_probability(one, analysis.vmin - millivolts{1.0}, 5);
    const double deep =
        ttt_.sdc_probability(one, analysis.vmin - millivolts{5.0}, 5);
    EXPECT_GT(shallow, 0.0);
    EXPECT_GT(deep, shallow);
    EXPECT_LE(deep, 1.0);
}

TEST_F(chip_model_test, invalid_assignments_rejected) {
    const execution_profile profile =
        profile_of(find_cpu_benchmark("mcf").loop);
    std::vector<core_assignment> bad_core{{9, &profile,
                                           nominal_core_frequency}};
    EXPECT_THROW((void)ttt_.analyze(bad_core, 0), contract_violation);
    std::vector<core_assignment> fast{{0, &profile, megahertz{3000.0}}};
    EXPECT_THROW((void)ttt_.analyze(fast, 0), contract_violation);
    std::vector<core_assignment> empty;
    EXPECT_THROW((void)ttt_.analyze(empty, 0), contract_violation);
}

} // namespace
} // namespace gb
