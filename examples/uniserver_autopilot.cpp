// UniServer autopilot: every exploitation mechanism in this library running
// together, the deployment the paper's conclusion sketches.  For each
// operating phase of a simulated day the autopilot:
//   1. places the phase's programs on cores Vmin-aware (placement),
//   2. picks the PMD voltage from the predictor + droop history (governor),
//   3. sets the DRAM refresh period from the DIMM temperature sensors
//      (adaptive refresh policy),
//   4. asks the operating-point supervisor for the staged plan (sentinel
//      epochs against the chip model's predicted SDC probability, circuit
//      breakers per operating point, watchdog replay on hangs),
// then executes the phase, feeds outcomes back, and accounts power against
// an always-nominal baseline -- net of the resilience overhead.
//
// Mid-run the example injects a deterministic fault storm (silent data
// corruption, DRAM CE bursts and hangs at the exploited point) to show the
// supervisor tripping, quarantining, degrading in stages and recovering to
// the exploiting state, with every epoch accounted.
//
//   $ ./uniserver_autopilot [phases] [--trace <path>] [--metrics <path>]
#include <fstream>
#include <iostream>
#include <optional>

#include "core/governor.hpp"
#include "core/placement.hpp"
#include "core/refresh_policy.hpp"
#include "core/savings.hpp"
#include "core/supervisor.hpp"
#include "dram/power.hpp"
#include "fleet/service.hpp"
#include "harness/trace/trace.hpp"
#include "thermal/testbed.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workloads/cpu_profiles.hpp"

using namespace gb;

int main(int argc, char** argv) {
    const std::optional<std::string> trace_path =
        take_flag_value(argc, argv, "--trace");
    const std::optional<std::string> metrics_path =
        take_flag_value(argc, argv, "--metrics");
    const int phases =
        static_cast<int>(int_arg(argc, argv, 1, 48, "phases", 1, 100000));
    if (leftover_argument(argc, argv, 2)) {
        return 2;
    }

    chip_model chip(make_ttt_chip(), make_xgene2_pdn());
    characterization_framework framework(chip, 2018);
    memory_system memory(single_dimm_geometry(), retention_model{}, 2018,
                         study_limits{celsius{62.0},
                                      milliseconds{2283.0}});
    thermal_testbed testbed(1, thermal_plant_config{}, 5);
    const adaptive_refresh_policy refresh_policy;
    const dram_power_model dram_power;
    const cpu_power_model cpu_power;

    // --- One-time characterization: train the predictor on chip-level
    // campaigns (what a commissioning pass would measure). ---
    vmin_predictor predictor;
    for (const cpu_benchmark& b : spec2006_suite()) {
        const execution_profile& profile =
            framework.profile_of(b.loop, nominal_core_frequency);
        std::vector<core_assignment> all;
        for (int core = 0; core < cores_per_chip; ++core) {
            all.push_back({core, &profile, nominal_core_frequency});
        }
        predictor.add_sample(profile,
                             chip.analyze(all, hash_label(b.name)).vmin);
    }
    predictor.train();
    voltage_governor governor(predictor);
    tracer trace;
    metrics_registry metrics;

    // This server is a one-node fleet; the fleet service owns its
    // per-cohort operating-point supervisor and runs the epochs.
    fleet::fleet_spec node_spec;
    node_spec.explicit_nodes.push_back(fleet::fleet_node{});
    fleet::fleet_service_config service_config;
    service_config.campaign = "uniserver_autopilot";
    service_config.trace = trace_path ? &trace : nullptr;
    service_config.metrics = metrics_path ? &metrics : nullptr;
    fleet::fleet_service service(node_spec, service_config);
    const fleet::cohort_key cohort = node_spec.explicit_nodes.front().cohort;
    operating_point_supervisor& supervisor =
        service.supervisor_for(cohort, supervisor_config{}, &governor);
    std::cout << "commissioned: predictor R^2 "
              << format_number(predictor.r_squared(), 2) << "\n\n";

    // --- Deterministic fault storm: SDC, DRAM CE bursts and hangs land on
    // one workload mix at the exploited point (stage 0) for a window of
    // phases mid-run, the localized marginality a breaker exists to catch.
    const epoch_fault_plan faults(epoch_fault_config{
        /*seed=*/2018, /*sdc_rate=*/0.5, /*ce_burst_rate=*/0.9,
        /*hang_rate=*/0.25, /*ce_burst_words=*/16});
    const int storm_begin = phases / 4;
    const int storm_end = storm_begin + 12;
    const std::size_t storm_mix = 1;

    // --- The day: alternating workload mixes and ambient temperatures. ---
    const std::vector<std::vector<std::string>> mixes{
        {"mcf", "gcc", "dealII", "lbm", "mcf", "gcc", "dealII", "lbm"},
        {"milc", "bwaves", "leslie3d", "namd", "gromacs", "cactusADM",
         "dealII", "mcf"},
        {"gromacs", "namd", "gromacs", "namd", "gromacs", "namd", "gromacs",
         "namd"},
    };
    const std::vector<double> ambients{42.0, 55.0, 48.0};

    rng r(9);
    double autopilot_w = 0.0;
    double nominal_w = 0.0;
    int disruptions = 0;
    int ce_epochs = 0;
    running_stats chosen_voltage;

    for (int phase = 0; phase < phases; ++phase) {
        const std::size_t kind =
            static_cast<std::size_t>(phase) % mixes.size();

        // (1) Placement.
        std::vector<const kernel*> programs;
        const execution_profile* worst_profile = nullptr;
        for (const std::string& name : mixes[kind]) {
            programs.push_back(&find_cpu_benchmark(name).loop);
        }
        const placement_result placement =
            optimize_placement(framework, programs);
        std::vector<core_assignment> assignments;
        double mean_current = 0.0;
        for (std::size_t i = 0; i < programs.size(); ++i) {
            const execution_profile& profile = framework.profile_of(
                *programs[i], nominal_core_frequency);
            assignments.push_back(
                core_assignment{placement.core_of_program[i], &profile,
                                nominal_core_frequency});
            mean_current += profile.average_current_a();
            if (worst_profile == nullptr ||
                profile.average_current_a() >
                    worst_profile->average_current_a()) {
                worst_profile = &profile;
            }
        }

        // (2) Voltage from the governor (keyed on the heaviest program's
        // counters, the PMU signal a governor actually has).
        const millivolts desired_v = governor.choose_voltage(*worst_profile);

        // (3) Refresh from the DIMM temperature.
        testbed.set_target(0, celsius{ambients[static_cast<std::size_t>(
                                  phase) % ambients.size()]});
        testbed.run(900.0, 1.0, 600.0);
        testbed.apply_to(memory);
        const milliseconds desired_trefp = refresh_policy.apply(memory);

        // (4) The supervisor's staged plan for this epoch.
        const std::uint64_t phase_seed =
            hash_label(mixes[kind].front()) + kind;
        const vmin_analysis analysis = chip.analyze(assignments, phase_seed);
        const double dram_bw = 2.0 + 2.0 * mean_current / 8.0;
        epoch_request request;
        request.pmd = analysis.critical_core / 2;
        request.workload_class = "mix" + std::to_string(kind);
        request.desired_voltage = desired_v;
        request.desired_refresh = desired_trefp;
        request.predicted_sdc =
            chip.sdc_probability(assignments, desired_v, phase_seed);

        const bool storm =
            phase >= storm_begin && phase < storm_end && kind == storm_mix;
        const auto execute = [&](const epoch_plan& plan) {
            epoch_result result;
            result.outcome =
                chip.evaluate_run(assignments, plan.voltage, phase_seed, r)
                    .outcome;
            result.observed_requirement = analysis.vmin;
            result.epoch_power_w =
                cpu_power.pmd_domain_power(chip.config(), assignments,
                                           plan.voltage, celsius{50.0})
                    .value +
                dram_power.power(plan.refresh, dram_bw).value;
            result.unsupervised_power_w =
                cpu_power.pmd_domain_power(chip.config(), assignments,
                                           desired_v, celsius{50.0})
                    .value +
                dram_power.power(desired_trefp, dram_bw).value;
            // The storm's faults live at the exploited point; a staged
            // back-off escapes them, which is exactly the recovery the
            // supervisor stages.
            if (storm && plan.stage == 0) {
                faults.apply(static_cast<std::uint64_t>(phase), result);
            }
            return result;
        };

        const supervised_epoch epoch =
            service.run_epoch(cohort, request, execute);
        chosen_voltage.add(epoch.plan.voltage.value);
        governor.observe(epoch.result.outcome, analysis.vmin);
        disruptions += is_disruption(epoch.result.outcome) ? 1 : 0;
        ce_epochs +=
            epoch.result.outcome == run_outcome::corrected_error ? 1 : 0;

        // Power accounting (PMD + DRAM domains): what was actually drawn,
        // including the lost replay attempt and the sentinel duplicate.
        autopilot_w +=
            epoch.result.epoch_power_w + epoch.lost_power_w +
            (epoch.plan.sentinel
                 ? supervisor.config().sentinel_overhead *
                       epoch.result.epoch_power_w
                 : 0.0);
        nominal_w +=
            cpu_power.pmd_domain_power(chip.config(), assignments,
                                       nominal_pmd_voltage, celsius{50.0})
                .value +
            dram_power.power(nominal_refresh_period, dram_bw).value;
    }

    const health_telemetry& health = supervisor.telemetry();
    const double overhead_w_epochs = health.sentinel_overhead_w_epochs +
                                     health.degradation_overhead_w_epochs;
    const supervised_savings net = net_of_resilience(
        domain_savings{watts{nominal_w / phases},
                       watts{(autopilot_w - overhead_w_epochs) / phases}},
        watts{overhead_w_epochs / phases});

    text_table table({"metric", "value"});
    table.add_row({"phases", std::to_string(phases)});
    table.add_row({"mean supervised PMD voltage",
                   format_number(chosen_voltage.mean(), 0) + " mV"});
    table.add_row({"voltage range",
                   format_number(chosen_voltage.min(), 0) + " - " +
                       format_number(chosen_voltage.max(), 0) + " mV"});
    table.add_row({"PMD+DRAM power (autopilot)",
                   format_number(autopilot_w / phases, 1) + " W"});
    table.add_row({"PMD+DRAM power (nominal)",
                   format_number(nominal_w / phases, 1) + " W"});
    table.add_row({"gross saving",
                   format_percent(net.gross.saving_fraction(), 1)});
    table.add_row({"resilience overhead",
                   format_number(net.resilience_overhead.value, 2) + " W"});
    table.add_row({"net saving",
                   format_percent(net.net_saving_fraction(), 1)});
    table.add_row({"disrupted phases", std::to_string(disruptions)});
    table.add_row({"corrected-error phases", std::to_string(ce_epochs)});
    table.add_row({"final guard",
                   format_number(governor.current_guard().value, 1) +
                       " mV"});
    table.render(std::cout);

    text_table health_table({"health", "count"});
    health_table.add_row({"epochs", std::to_string(health.epochs)});
    health_table.add_row({"committed", std::to_string(health.committed)});
    health_table.add_row(
        {"sentinel", std::to_string(health.sentinel_epochs)});
    health_table.add_row({"replayed", std::to_string(health.replayed)});
    health_table.add_row({"aborted", std::to_string(health.aborted)});
    health_table.add_row(
        {"quarantined", std::to_string(health.quarantined_epochs)});
    health_table.add_row(
        {"SDC detected", std::to_string(health.detected_sdc)});
    health_table.add_row(
        {"SDC undetected", std::to_string(health.undetected_sdc)});
    health_table.add_row(
        {"DRAM CE bursts", std::to_string(health.dram_ce_bursts)});
    health_table.add_row(
        {"breaker trips", std::to_string(health.breaker_trips)});
    health_table.add_row(
        {"watchdog aborts", std::to_string(health.watchdog_aborts)});
    health_table.add_row(
        {"degraded epochs", std::to_string(health.degraded_epochs)});
    std::cout << '\n';
    health_table.render(std::cout);
    std::cout << "\nsupervisor state: " << to_string(supervisor.state())
              << " (stage " << supervisor.stage() << ")\n";

    if (trace_path) {
        std::ofstream out(*trace_path);
        write_chrome_trace(out, trace);
        std::cerr << "trace written to " << *trace_path << " ("
                  << trace.size() << " events)\n";
    }
    if (metrics_path) {
        health.publish(metrics, 0, health.epochs);
        std::ofstream out(*metrics_path);
        write_metrics_json(out, metrics);
        std::cerr << "metrics written to " << *metrics_path << '\n';
    }

    if (!health.balanced()) {
        std::cerr << "FAIL: " << health.epochs - health.accounted()
                  << " unaccounted epochs\n";
        return 1;
    }
    // The default-length day must show the whole arc: at least one breaker
    // trip during the storm and a recovery to the exploiting state after.
    if (phases >= 48 &&
        (health.breaker_trips == 0 ||
         supervisor.state() != supervisor_state::exploiting)) {
        std::cerr << "FAIL: expected >=1 breaker trip and recovery to "
                     "exploiting, got "
                  << health.breaker_trips << " trips, state "
                  << to_string(supervisor.state()) << "\n";
        return 1;
    }
    return 0;
}
