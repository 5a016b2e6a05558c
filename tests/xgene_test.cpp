#include "xgene/server.hpp"
#include "xgene/slimpro.hpp"
#include "xgene/soc.hpp"

#include <gtest/gtest.h>

#include "harness/framework.hpp"
#include "util/contracts.hpp"
#include "workloads/cpu_profiles.hpp"
#include "workloads/dram_profiles.hpp"

namespace gb {
namespace {

TEST(soc_test, topology_matches_xgene2) {
    const soc_topology topo = xgene2_topology();
    EXPECT_EQ(topo.core_count(), 8);
    EXPECT_EQ(topo.pmds, 4);
    EXPECT_EQ(topo.mcu_count(), 4);
    EXPECT_EQ(topo.l2_per_pmd_kb, 256);
    EXPECT_EQ(topo.l3_mb, 8);
    EXPECT_EQ(topo.pmd_of_core(0), 0);
    EXPECT_EQ(topo.pmd_of_core(7), 3);
    EXPECT_THROW((void)topo.pmd_of_core(8), contract_violation);
}

TEST(operating_point_test, relative_performance) {
    operating_point op = operating_point::nominal();
    EXPECT_DOUBLE_EQ(op.relative_performance(), 1.0);
    op.pmd_frequency[0] = megahertz{1200.0};
    op.pmd_frequency[1] = megahertz{1200.0};
    EXPECT_DOUBLE_EQ(op.relative_performance(), 0.75);
}

TEST(slimpro_test, refresh_configuration_bounds) {
    slimpro mgmt;
    memory_system memory(single_dimm_geometry(), retention_model{}, 1,
                         study_limits{});
    mgmt.configure_refresh_period(memory, milliseconds{2283.0});
    EXPECT_DOUBLE_EQ(memory.refresh_period().value, 2283.0);
    EXPECT_THROW(mgmt.configure_refresh_period(memory, milliseconds{32.0}),
                 contract_violation);
}

class server_test : public ::testing::Test {
protected:
    server_test() : server_(make_ttt_chip(), 2018, single_dimm_geometry()) {}

    xgene2_server server_;
};

TEST_F(server_test, apply_programs_refresh_through_slimpro) {
    operating_point op = operating_point::nominal();
    op.refresh_period = milliseconds{2283.0};
    server_.apply(op);
    EXPECT_DOUBLE_EQ(server_.memory().refresh_period().value, 2283.0);
}

TEST_F(server_test, apply_validates_frequencies) {
    operating_point op = operating_point::nominal();
    op.pmd_frequency[2] = megahertz{3000.0};
    EXPECT_THROW(server_.apply(op), contract_violation);
}

TEST_F(server_test, sensors_decompose_power_domains) {
    characterization_framework fw(server_.cpu(), 7);
    workload_snapshot snap;
    const execution_profile& profile =
        fw.profile_of(jammer_cpu_kernel(), nominal_core_frequency);
    for (int c = 0; c < 8; ++c) {
        snap.assignments.push_back({c, &profile, nominal_core_frequency});
    }
    snap.dram_bandwidth_gbps = jammer_dram_workload().bandwidth_gbps;

    const sensor_readings readings = server_.read_sensors(snap);
    EXPECT_GT(readings.pmd_power.value, 10.0);
    EXPECT_GT(readings.soc_power.value, 4.0);
    EXPECT_GT(readings.dram_power.value, 5.0);
    EXPECT_NEAR(readings.total_power().value,
                readings.pmd_power.value + readings.soc_power.value +
                    readings.dram_power.value + readings.other_power.value,
                1e-12);
}

TEST_F(server_test, sensors_reject_mismatched_frequency) {
    characterization_framework fw(server_.cpu(), 7);
    workload_snapshot snap;
    const execution_profile& profile =
        fw.profile_of(jammer_cpu_kernel(), megahertz{1200.0});
    snap.assignments.push_back({0, &profile, megahertz{1200.0}});
    // Operating point still at nominal 2.4 GHz: mismatch must be caught.
    EXPECT_THROW((void)server_.read_sensors(snap), contract_violation);
}

TEST_F(server_test, undervolting_reduces_pmd_power_only) {
    characterization_framework fw(server_.cpu(), 7);
    workload_snapshot snap;
    const execution_profile& profile =
        fw.profile_of(jammer_cpu_kernel(), nominal_core_frequency);
    for (int c = 0; c < 8; ++c) {
        snap.assignments.push_back({c, &profile, nominal_core_frequency});
    }
    const sensor_readings before = server_.read_sensors(snap);
    operating_point op = operating_point::nominal();
    op.pmd_voltage = millivolts{930.0};
    server_.apply(op);
    const sensor_readings after = server_.read_sensors(snap);
    EXPECT_LT(after.pmd_power.value, before.pmd_power.value);
    EXPECT_DOUBLE_EQ(after.soc_power.value, before.soc_power.value);
    EXPECT_DOUBLE_EQ(after.dram_power.value, before.dram_power.value);
}

TEST_F(server_test, execute_reports_corrected_errors_below_vmin) {
    characterization_framework fw(server_.cpu(), 7);
    const execution_profile& profile = fw.profile_of(
        make_component_virus(cpu_component::l1d), nominal_core_frequency);
    workload_snapshot snap;
    snap.assignments.push_back({6, &profile, nominal_core_frequency});

    // Drop just below the cache virus's Vmin: SRAM CEs should accumulate.
    const vmin_analysis analysis = server_.cpu().analyze(snap.assignments, 1);
    operating_point op = operating_point::nominal();
    op.pmd_voltage = analysis.vmin - millivolts{4.0};
    server_.apply(op);
    rng r(3);
    int ce_runs = 0;
    for (int i = 0; i < 100; ++i) {
        const run_evaluation eval = server_.execute(snap, 100 + i, r);
        ce_runs += eval.outcome == run_outcome::corrected_error ? 1 : 0;
    }
    EXPECT_GT(ce_runs, 0);
}

TEST(power_domain_test, names) {
    EXPECT_EQ(to_string(power_domain::pmd), "PMD");
    EXPECT_EQ(to_string(power_domain::dram), "DRAM");
}

TEST(soc_power_test, fixed_share_limits_savings) {
    const soc_power_model model;
    const watts nominal = model.power(nominal_soc_voltage);
    const watts under = model.power(millivolts{920.0});
    const double saving = 1.0 - under.value / nominal.value;
    // Fig 9: SoC domain saves only ~6.9% because the PHY/IO share is fixed.
    EXPECT_NEAR(saving, 0.069, 0.02);
    EXPECT_NEAR(nominal.value, 5.5, 0.2);
}

} // namespace
} // namespace gb
