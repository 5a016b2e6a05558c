// End-to-end integration: the full characterize-then-exploit flow of the
// paper on one server instance -- CPU Vmin campaigns, predictor training,
// thermal-testbed-driven DRAM refresh exploration, and finally the Jammer
// application running at the combined safe operating point without
// disruption while saving ~20% of server power.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/explorer.hpp"
#include "core/predictor.hpp"
#include "core/savings.hpp"
#include "ga/virus_search.hpp"
#include "thermal/testbed.hpp"
#include "workloads/cpu_profiles.hpp"
#include "workloads/dram_profiles.hpp"
#include "workloads/jammer.hpp"

namespace gb {
namespace {

TEST(integration_test, full_characterize_and_exploit_flow) {
    // --- The server under test (typical TTT part, one DIMM for speed). ---
    xgene2_server server(
        make_ttt_chip(), 2018, single_dimm_geometry(), retention_model{},
        // Allow for the testbed's sub-degree regulation ripple above 60 C.
        study_limits{celsius{62.0}, milliseconds{2283.0}});
    characterization_framework framework(server.cpu(), 99);
    guardband_explorer explorer(framework);

    // --- Phase 1: CPU characterization (Fig 4 flow). ---
    const int robust_core =
        explorer.most_robust_core(find_cpu_benchmark("milc"));
    const std::vector<vmin_measurement> measurements =
        explorer.characterize_suite(spec2006_suite(), robust_core, 3);
    millivolts worst_spec{0.0};
    for (const vmin_measurement& m : measurements) {
        worst_spec = std::max(worst_spec, m.vmin);
    }
    EXPECT_LT(worst_spec.value, 900.0);

    // --- Phase 2: dI/dt virus confirms the guardband is not free slack
    // everywhere (Fig 6/7 flow). ---
    const pipeline_model pipeline(nominal_core_frequency);
    ga_config ga;
    ga.population_size = 48;
    ga.generations = 40;
    rng ga_rng(7);
    const virus_search_result virus =
        evolve_didt_virus(pipeline, server.cpu().pdn(), ga, ga_rng);
    const millivolts virus_vmin = framework.find_vmin(
        virus.virus, {0, 1, 2, 3, 4, 5, 6, 7}, nominal_core_frequency, 3);
    EXPECT_GT(virus_vmin, worst_spec);

    // --- Phase 3: predictor trained from the campaign (Section IV.D). ---
    vmin_predictor predictor;
    for (const cpu_benchmark& b : spec2006_suite()) {
        const execution_profile& profile =
            framework.profile_of(b.loop, nominal_core_frequency);
        predictor.add_sample(profile,
                             server.cpu().analyze_single(profile,
                                                         robust_core).vmin);
    }
    predictor.train();
    EXPECT_TRUE(predictor.trained());

    // --- Phase 4: DRAM exploration under the thermal testbed (Table I /
    // Fig 8 flow). ---
    thermal_testbed testbed(server.memory().geometry().dimms,
                            thermal_plant_config{}, 3);
    testbed.set_all_targets(celsius{60.0});
    testbed.run(2400.0, 1.0, 900.0);
    testbed.apply_to(server.memory());
    const refresh_exploration exploration =
        guardband_explorer::explore_refresh(
            server.memory(),
            {milliseconds{64.0}, milliseconds{512.0}, milliseconds{2283.0}});
    EXPECT_DOUBLE_EQ(exploration.max_safe_period.value, 2283.0);

    // --- Phase 5: exploit -- run the Jammer at the safe point (Fig 9). ---
    const jammer_detector detector{jammer_config{}};
    EXPECT_TRUE(detector.meets_qos(nominal_core_frequency, 4, 8));
    rng event_rng(5);
    const std::vector<jam_event> events =
        make_random_jam_events(4, 200, event_rng);
    rng iq_rng(6);
    const detection_report report = detector.run(200, events, iq_rng);
    EXPECT_GE(report.detection_rate(), 0.75);

    workload_snapshot snap;
    const execution_profile& jammer_profile =
        framework.profile_of(jammer_cpu_kernel(), nominal_core_frequency);
    for (int c = 0; c < 8; ++c) {
        snap.assignments.push_back({c, &jammer_profile,
                                    nominal_core_frequency});
    }
    snap.dram_bandwidth_gbps = jammer_dram_workload().bandwidth_gbps;

    operating_point safe = operating_point::nominal();
    safe.pmd_voltage = millivolts{930.0};
    safe.soc_voltage = millivolts{920.0};
    safe.refresh_period = exploration.max_safe_period;

    const server_savings savings = compare_operating_points(
        server, snap, operating_point::nominal(), safe);
    EXPECT_NEAR(savings.total.saving_fraction(), 0.202, 0.03);

    // No disruption at the safe point, and no uncorrected DRAM errors.
    rng run_rng(8);
    for (int i = 0; i < 30; ++i) {
        const run_evaluation eval =
            server.execute(snap, static_cast<std::uint64_t>(i), run_rng);
        EXPECT_FALSE(is_disruption(eval.outcome));
    }
    const scan_result dram_check = server.memory().run_dpbench(
        data_pattern::random_data, 77);
    EXPECT_TRUE(dram_check.fully_corrected());
}

TEST(integration_test, sigma_chips_change_the_exploitation_decision) {
    // The TSS part has essentially no margin under the virus (Fig 7): the
    // explorer must conclude it should stay at nominal voltage while the
    // TTT part can be undervolted.
    const pipeline_model pipeline(nominal_core_frequency);
    ga_config ga;
    ga.population_size = 48;
    ga.generations = 40;
    rng ga_rng(13);
    const virus_search_result virus =
        evolve_didt_virus(pipeline, make_xgene2_pdn(), ga, ga_rng);
    const execution_profile profile = pipeline.execute(virus.virus, 8192);
    std::vector<core_assignment> all;
    for (int c = 0; c < 8; ++c) {
        all.push_back({c, &profile, nominal_core_frequency});
    }
    const chip_model ttt(make_ttt_chip(), make_xgene2_pdn());
    const chip_model tss(make_tss_chip(), make_xgene2_pdn());
    // The canonical launch alignment used by the characterization
    // framework (see framework.cpp).
    const std::uint64_t phase = hash_label("ga_didt_virus");
    const double ttt_margin = 980.0 - ttt.analyze(all, phase).vmin.value;
    const double tss_margin = 980.0 - tss.analyze(all, phase).vmin.value;
    EXPECT_GT(ttt_margin, 40.0);
    EXPECT_LT(tss_margin, 25.0);
    EXPECT_GT(ttt_margin, tss_margin + 25.0);
}

} // namespace
} // namespace gb
