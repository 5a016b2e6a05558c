// The deterministic rig-fault model: fault draws are pure functions of
// (seed, task, attempt), campaigns under fault injection never throw, every
// injected fault is accounted for, and results stay worker-count invariant.
#include "harness/fault_injection.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "harness/campaign.hpp"
#include "harness/dram_campaign.hpp"
#include "harness/framework.hpp"
#include "harness/logfile.hpp"
#include "util/contracts.hpp"
#include "workloads/cpu_profiles.hpp"

namespace gb {
namespace {

campaign_spec small_spec(int workers) {
    campaign_spec spec;
    spec.benchmark = "milc";
    spec.repetitions = 5;
    spec.workers = workers;
    for (const double v : {980.0, 905.0, 870.0}) {
        characterization_setup setup;
        setup.voltage = millivolts{v};
        setup.cores = {6};
        spec.setups.push_back(setup);
    }
    return spec;
}

TEST(fault_plan_test, draws_are_deterministic) {
    const fault_plan plan = make_uniform_fault_plan(2018, 0.3);
    for (std::uint64_t index = 0; index < 200; ++index) {
        for (int attempt = 0; attempt < 3; ++attempt) {
            EXPECT_EQ(plan.draw(index, attempt), plan.draw(index, attempt));
        }
        EXPECT_EQ(plan.corrupts_log(index), plan.corrupts_log(index));
    }
    // A different seed gives a different fault pattern somewhere.
    const fault_plan other = make_uniform_fault_plan(2019, 0.3);
    bool any_difference = false;
    for (std::uint64_t index = 0; index < 200 && !any_difference; ++index) {
        any_difference = plan.draw(index, 0) != other.draw(index, 0);
    }
    EXPECT_TRUE(any_difference);
}

TEST(fault_plan_test, zero_rate_plan_is_silent) {
    const fault_plan plan = make_uniform_fault_plan(2018, 0.0);
    for (std::uint64_t index = 0; index < 500; ++index) {
        EXPECT_EQ(plan.draw(index, 0), rig_fault::none);
        EXPECT_FALSE(plan.corrupts_log(index));
    }
    EXPECT_DOUBLE_EQ(plan.thermocouple_offset(0).value, 0.0);
}

TEST(fault_plan_test, rates_produce_all_fault_kinds) {
    const fault_plan plan = make_uniform_fault_plan(7, 0.9);
    int hangs = 0;
    int crashes = 0;
    int switches = 0;
    for (std::uint64_t index = 0; index < 300; ++index) {
        switch (plan.draw(index, 0)) {
        case rig_fault::hang_until_watchdog: ++hangs; break;
        case rig_fault::board_crash: ++crashes; break;
        case rig_fault::power_switch_failure: ++switches; break;
        case rig_fault::none: break;
        }
    }
    EXPECT_GT(hangs, 0);
    EXPECT_GT(crashes, 0);
    EXPECT_GT(switches, 0);
}

TEST(fault_plan_test, downtime_follows_the_recovery_path) {
    fault_plan_config config;
    config.watchdog_timeout_s = 10.0;
    config.reboot_s = 30.0;
    config.power_cycle_retry_s = 5.0;
    const fault_plan plan(config);
    EXPECT_DOUBLE_EQ(plan.downtime_for(rig_fault::none), 0.0);
    EXPECT_DOUBLE_EQ(plan.downtime_for(rig_fault::hang_until_watchdog),
                     40.0);
    EXPECT_DOUBLE_EQ(plan.downtime_for(rig_fault::board_crash), 30.0);
    EXPECT_DOUBLE_EQ(plan.downtime_for(rig_fault::power_switch_failure),
                     5.0);
}

TEST(fault_plan_test, corrupt_line_never_parses_as_a_record) {
    const fault_plan plan = make_uniform_fault_plan(99, 1.0);
    run_record record;
    record.benchmark = "milc";
    record.voltage = millivolts{905.0};
    record.outcome = run_outcome::crash;
    record.watchdog_reset = true;
    const std::string line = to_log_line(record);
    for (std::uint64_t index = 0; index < 500; ++index) {
        const std::string mangled = plan.corrupt_line(index, line);
        run_record parsed;
        EXPECT_FALSE(parse_log_line(mangled, parsed))
            << "corrupted line parsed as a record: " << mangled;
    }
}

TEST(fault_injection_test, faulty_campaign_accounts_every_fault) {
    const chip_model ttt(make_ttt_chip(), make_xgene2_pdn());
    characterization_framework framework(ttt, 2018);
    const fault_plan plan = make_uniform_fault_plan(2018, 0.4);
    campaign_io io;
    io.faults = &plan;
    const campaign_result result = framework.run_campaign(
        small_spec(4), find_cpu_benchmark("milc").loop, io);

    const execution_stats& stats = result.stats;
    EXPECT_GT(stats.injected_faults(), 0u);
    // The accounting invariant: every injected fault either got retried or
    // exhausted its task's budget.
    EXPECT_EQ(stats.watchdog_timeouts + stats.board_crashes +
                  stats.power_switch_failures,
              stats.retries + stats.aborted_rig);
    EXPECT_GT(stats.rig_downtime_s, 0.0);
    // Aborted engine tasks and aborted records agree.
    EXPECT_EQ(result.summarize().aborted, stats.aborted_rig);
    EXPECT_EQ(result.summarize().total(), result.records.size());
}

TEST(fault_injection_test, certain_faults_abort_every_task) {
    const chip_model ttt(make_ttt_chip(), make_xgene2_pdn());
    characterization_framework framework(ttt, 2018);
    fault_plan_config config;
    config.seed = 1;
    config.hang_rate = 1.0; // every attempt hangs: budget always exhausts
    const fault_plan plan(config);
    campaign_io io;
    io.faults = &plan;
    io.retry_budget = 3;
    const campaign_result result = framework.run_campaign(
        small_spec(2), find_cpu_benchmark("milc").loop, io);

    EXPECT_EQ(result.summarize().aborted, result.records.size());
    EXPECT_EQ(result.stats.aborted_rig, result.records.size());
    EXPECT_EQ(result.stats.watchdog_timeouts,
              result.records.size() * 3); // budget attempts per task
    EXPECT_EQ(result.stats.retries, result.records.size() * 2);
    for (const run_record& record : result.records) {
        EXPECT_EQ(record.outcome, run_outcome::aborted_rig);
        EXPECT_TRUE(record.watchdog_reset);
    }
    // Aborted runs count as disruptions: a missing measurement must never
    // certify a voltage as safe.
    EXPECT_TRUE(is_disruption(run_outcome::aborted_rig));
}

TEST(fault_injection_test, faulty_records_identical_1_vs_8_workers) {
    const chip_model ttt(make_ttt_chip(), make_xgene2_pdn());
    const kernel& loop = find_cpu_benchmark("milc").loop;
    const fault_plan plan = make_uniform_fault_plan(2018, 0.25);

    characterization_framework serial(ttt, 99);
    campaign_io io;
    io.faults = &plan;
    const campaign_result one =
        serial.run_campaign(small_spec(1), loop, io);
    characterization_framework parallel(ttt, 99);
    const campaign_result eight =
        parallel.run_campaign(small_spec(8), loop, io);

    ASSERT_EQ(one.records.size(), eight.records.size());
    for (std::size_t i = 0; i < one.records.size(); ++i) {
        EXPECT_EQ(one.records[i].outcome, eight.records[i].outcome);
        EXPECT_DOUBLE_EQ(one.records[i].margin.value,
                         eight.records[i].margin.value);
    }
    // The fault accounting is part of the deterministic contract.
    EXPECT_EQ(one.stats.retries, eight.stats.retries);
    EXPECT_EQ(one.stats.aborted_rig, eight.stats.aborted_rig);
    EXPECT_EQ(one.stats.watchdog_timeouts, eight.stats.watchdog_timeouts);
    EXPECT_EQ(one.stats.board_crashes, eight.stats.board_crashes);
    EXPECT_EQ(one.stats.power_switch_failures,
              eight.stats.power_switch_failures);
    EXPECT_DOUBLE_EQ(one.stats.rig_downtime_s, eight.stats.rig_downtime_s);

    std::ostringstream csv_one;
    write_campaign_csv(csv_one, one);
    std::ostringstream csv_eight;
    write_campaign_csv(csv_eight, eight);
    EXPECT_EQ(csv_one.str(), csv_eight.str());
}

TEST(fault_injection_test, dram_campaign_routes_thermocouple_faults) {
    const study_limits limits{celsius{62.0}, milliseconds{2283.0}};
    memory_system memory(single_dimm_geometry(), retention_model{}, 2018,
                         limits);
    thermal_testbed testbed(1, thermal_plant_config{}, 7);

    fault_plan_config config;
    config.seed = 5;
    config.thermocouple_fault_rate = 1.0;
    config.thermocouple_offset = celsius{-6.0};
    const fault_plan plan(config);

    dram_campaign_spec spec;
    spec.temperatures = {celsius{55.0}};
    spec.refresh_periods = {milliseconds{64.0}};
    spec.repetitions = 1;
    spec.workers = 2;
    campaign_io io;
    io.faults = &plan;
    const dram_campaign_result result =
        run_dram_campaign(memory, testbed, spec, io);

    EXPECT_EQ(result.thermocouple_faults, 1u);
    // A 6 C sensor offset blows way past the 2 C cross-check threshold, so
    // the alarm must catch it and control falls back to the SPD sensor.
    EXPECT_EQ(result.cross_check_alarms, 1u);
    EXPECT_EQ(testbed.alarm_count(), 1);
}

TEST(fault_injection_test, dram_aborts_count_and_stay_unsafe) {
    const study_limits limits{celsius{62.0}, milliseconds{2283.0}};
    memory_system memory(single_dimm_geometry(), retention_model{}, 2018,
                         limits);
    thermal_testbed testbed(1, thermal_plant_config{}, 7);

    fault_plan_config config;
    config.seed = 5;
    config.crash_rate = 1.0; // every scan attempt crashes the board
    const fault_plan plan(config);

    dram_campaign_spec spec;
    spec.temperatures = {celsius{55.0}};
    spec.refresh_periods = {milliseconds{64.0}, milliseconds{2283.0}};
    spec.repetitions = 2;
    campaign_io io;
    io.faults = &plan;
    const dram_campaign_result result =
        run_dram_campaign(memory, testbed, spec, io);

    EXPECT_EQ(result.aborted_records(), result.records.size());
    EXPECT_EQ(result.stats.aborted_rig, result.records.size());
    // No measurement may certify a relaxed period.
    EXPECT_DOUBLE_EQ(result.max_safe_period(celsius{55.0}).value,
                     nominal_refresh_period.value);
}

TEST(fault_injection_test, config_validation_rejects_bad_rates) {
    fault_plan_config config;
    config.hang_rate = 0.6;
    config.crash_rate = 0.6; // sum > 1
    EXPECT_THROW((void)fault_plan(config), contract_violation);
    EXPECT_THROW((void)make_uniform_fault_plan(1, -0.1),
                 contract_violation);
    EXPECT_THROW((void)make_uniform_fault_plan(1, 1.5), contract_violation);
}

} // namespace
} // namespace gb
