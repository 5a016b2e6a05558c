#include "harness/campaign.hpp"
#include "harness/framework.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/contracts.hpp"
#include "workloads/cpu_profiles.hpp"

namespace gb {
namespace {

class harness_test : public ::testing::Test {
protected:
    chip_model ttt_{make_ttt_chip(), make_xgene2_pdn()};
    characterization_framework framework_{ttt_, 99};
};

TEST_F(harness_test, campaign_runs_every_setup_and_repetition) {
    campaign_spec spec;
    spec.benchmark = "milc";
    spec.repetitions = 5;
    for (const double v : {980.0, 940.0, 900.0}) {
        characterization_setup setup;
        setup.voltage = millivolts{v};
        setup.cores = {6};
        spec.setups.push_back(setup);
    }
    const campaign_result result = framework_.run_campaign(
        spec, find_cpu_benchmark("milc").loop);
    EXPECT_EQ(result.records.size(), 15u);
    const classification_summary summary = result.summarize();
    EXPECT_EQ(summary.total(), 15u);
}

TEST_F(harness_test, high_voltage_runs_are_clean) {
    campaign_spec spec;
    spec.benchmark = "mcf";
    spec.repetitions = 10;
    characterization_setup setup;
    setup.voltage = nominal_pmd_voltage;
    setup.cores = {6};
    spec.setups.push_back(setup);
    const campaign_result result =
        framework_.run_campaign(spec, find_cpu_benchmark("mcf").loop);
    EXPECT_EQ(result.summarize().ok, 10u);
    EXPECT_EQ(result.watchdog_resets, 0u);
}

TEST_F(harness_test, deep_undervolt_trips_watchdog) {
    campaign_spec spec;
    spec.benchmark = "milc";
    spec.repetitions = 10;
    characterization_setup setup;
    setup.voltage = millivolts{820.0}; // far below any Vmin
    setup.cores = {6};
    spec.setups.push_back(setup);
    const campaign_result result =
        framework_.run_campaign(spec, find_cpu_benchmark("milc").loop);
    EXPECT_EQ(result.summarize().crash, 10u);
    EXPECT_EQ(result.watchdog_resets, 10u);
    EXPECT_EQ(framework_.watchdog_resets(), 10u);
}

TEST_F(harness_test, summarize_at_filters_by_voltage) {
    campaign_spec spec;
    spec.benchmark = "mcf";
    spec.repetitions = 3;
    for (const double v : {980.0, 820.0}) {
        characterization_setup setup;
        setup.voltage = millivolts{v};
        setup.cores = {6};
        spec.setups.push_back(setup);
    }
    const campaign_result result =
        framework_.run_campaign(spec, find_cpu_benchmark("mcf").loop);
    EXPECT_EQ(result.summarize_at(millivolts{980.0}).ok, 3u);
    EXPECT_EQ(result.summarize_at(millivolts{820.0}).crash, 3u);
}

TEST_F(harness_test, csv_parsing_phase) {
    campaign_spec spec;
    spec.benchmark = "namd";
    spec.repetitions = 2;
    characterization_setup setup;
    setup.voltage = nominal_pmd_voltage;
    setup.cores = {0, 1};
    spec.setups.push_back(setup);
    const campaign_result result =
        framework_.run_campaign(spec, find_cpu_benchmark("namd").loop);

    std::ostringstream out;
    write_campaign_csv(out, result);
    const std::string csv = out.str();
    EXPECT_NE(csv.find("benchmark,voltage_mv"), std::string::npos);
    EXPECT_NE(csv.find("namd,980,2400,0+1,0,OK"), std::string::npos);
    // Header plus one line per record.
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(csv.begin(), csv.end(), '\n')),
              1 + result.records.size());
}

TEST_F(harness_test, find_vmin_brackets_analytic_value) {
    const kernel& loop = find_cpu_benchmark("bwaves").loop;
    const millivolts measured =
        framework_.find_vmin(loop, {6}, nominal_core_frequency, 5);
    const vmin_analysis analytic = ttt_.analyze_single(
        framework_.profile_of(loop, nominal_core_frequency), 6);
    EXPECT_NEAR(measured.value, analytic.vmin.value, 12.0);
    EXPECT_LT(measured, nominal_pmd_voltage);
}

TEST_F(harness_test, find_vmin_step_granularity) {
    const kernel& loop = find_cpu_benchmark("mcf").loop;
    const millivolts coarse = framework_.find_vmin(
        loop, {6}, nominal_core_frequency, 3, millivolts{20.0});
    EXPECT_NEAR(std::fmod(980.0 - coarse.value, 20.0), 0.0, 1e-9);
}

TEST_F(harness_test, find_vmin_lower_at_reduced_frequency) {
    const kernel& loop = find_cpu_benchmark("gromacs").loop;
    const millivolts full =
        framework_.find_vmin(loop, {6}, nominal_core_frequency, 3);
    const millivolts half =
        framework_.find_vmin(loop, {6}, megahertz{1200.0}, 3);
    EXPECT_LT(half, full);
}

TEST_F(harness_test, profile_cache_returns_same_instance) {
    const kernel& loop = find_cpu_benchmark("milc").loop;
    const execution_profile& a =
        framework_.profile_of(loop, nominal_core_frequency);
    const execution_profile& b =
        framework_.profile_of(loop, nominal_core_frequency);
    EXPECT_EQ(&a, &b);
    const execution_profile& c =
        framework_.profile_of(loop, megahertz{1200.0});
    EXPECT_NE(&a, &c);
}

TEST_F(harness_test, campaign_validates_spec) {
    campaign_spec empty;
    empty.repetitions = 1;
    EXPECT_THROW((void)framework_.run_campaign(
                     empty, find_cpu_benchmark("mcf").loop),
                 contract_violation);
    campaign_spec bad_reps;
    bad_reps.repetitions = 0;
    characterization_setup setup;
    bad_reps.setups.push_back(setup);
    EXPECT_THROW((void)framework_.run_campaign(
                     bad_reps, find_cpu_benchmark("mcf").loop),
                 contract_violation);
}

} // namespace
} // namespace gb
