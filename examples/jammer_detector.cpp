// End-to-end Jammer-detector deployment (the paper's Section IV.D
// showcase): synthesize a contested spectrum, run the detector, verify QoS,
// then execute the whole thing on the simulated server at both the nominal
// and the revealed safe operating point and compare power -- and finally
// keep it running at the safe point under the operating-point supervisor
// through an injected fault burst, reporting savings net of the resilience
// overhead.
//
//   $ ./jammer_detector [windows] [events] [epochs] [--trace <path>]
//                       [--metrics <path>] [--status <path>]
#include <chrono>
#include <iostream>
#include <optional>

#include "core/savings.hpp"
#include "core/supervisor.hpp"
#include "harness/framework.hpp"
#include "harness/publish.hpp"
#include "harness/status.hpp"
#include "harness/trace/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workloads/cpu_profiles.hpp"
#include "workloads/dram_profiles.hpp"
#include "workloads/jammer.hpp"

using namespace gb;

int main(int argc, char** argv) {
    const std::optional<std::string> trace_path =
        take_flag_value(argc, argv, "--trace");
    const std::optional<std::string> metrics_path =
        take_flag_value(argc, argv, "--metrics");
    const std::optional<std::string> status_path =
        take_flag_value(argc, argv, "--status");
    const int windows =
        static_cast<int>(int_arg(argc, argv, 1, 600, "windows", 1, 1000000));
    const int events =
        static_cast<int>(int_arg(argc, argv, 2, 8, "events", 0, 10000));
    const int epochs =
        static_cast<int>(int_arg(argc, argv, 3, 96, "epochs", 1, 100000));
    if (leftover_argument(argc, argv, 4)) {
        return 2;
    }
    // Each jam event needs its own slot of more than 8 windows.
    if (windows <= 8 * events) {
        std::cerr << "jammer_detector: windows (" << windows
                  << ") must exceed 8 x events (" << events << ")\n";
        return 2;
    }

    // --- The application itself: spectrum monitoring. ---
    const jammer_detector detector{jammer_config{}};
    rng event_rng(5);
    const std::vector<jam_event> injected =
        make_random_jam_events(events, windows, event_rng);
    rng iq_rng(6);
    const detection_report report = detector.run(windows, injected, iq_rng);

    std::cout << "spectrum watch: " << windows << " windows ("
              << windows * detector.config().window_duration_s() * 1e3
              << " ms of air time), " << events << " jam events injected\n"
              << "detected " << report.events_detected << '/'
              << report.events_injected << " (mean latency "
              << report.mean_detection_latency_windows
              << " windows), false-alarm rate "
              << format_percent(report.false_alarm_rate(), 2) << '\n';

    // --- Real-time budget: 4 instances share the 8 cores. ---
    std::cout << "QoS (4 instances / 8 cores): 2.4 GHz "
              << (detector.meets_qos(megahertz{2400.0}, 4, 8) ? "met"
                                                              : "missed")
              << ", 1.2 GHz "
              << (detector.meets_qos(megahertz{1200.0}, 4, 8) ? "met"
                                                              : "missed")
              << "\n\n";

    // --- Deploy on the server at nominal vs safe operating points. ---
    xgene2_server server(make_ttt_chip(), 2018);
    characterization_framework framework(server.cpu(), 7);
    workload_snapshot snapshot;
    const execution_profile& profile =
        framework.profile_of(jammer_cpu_kernel(), nominal_core_frequency);
    for (int c = 0; c < 8; ++c) {
        snapshot.assignments.push_back({c, &profile,
                                        nominal_core_frequency});
    }
    snapshot.dram_bandwidth_gbps = jammer_dram_workload().bandwidth_gbps;

    operating_point safe = operating_point::nominal();
    safe.pmd_voltage = millivolts{930.0};
    safe.soc_voltage = millivolts{920.0};
    safe.refresh_period = milliseconds{2283.0};
    const server_savings savings = compare_operating_points(
        server, snapshot, operating_point::nominal(), safe);

    text_table table({"domain", "nominal W", "safe W", "saving"});
    table.add_row({"PMD", format_number(savings.pmd.nominal.value, 1),
                   format_number(savings.pmd.tuned.value, 1),
                   format_percent(savings.pmd.saving_fraction(), 1)});
    table.add_row({"SoC", format_number(savings.soc.nominal.value, 1),
                   format_number(savings.soc.tuned.value, 1),
                   format_percent(savings.soc.saving_fraction(), 1)});
    table.add_row({"DRAM", format_number(savings.dram.nominal.value, 1),
                   format_number(savings.dram.tuned.value, 1),
                   format_percent(savings.dram.saving_fraction(), 1)});
    table.add_row({"TOTAL", format_number(savings.total.nominal.value, 1),
                   format_number(savings.total.tuned.value, 1),
                   format_percent(savings.total.saving_fraction(), 1)});
    table.render(std::cout);

    // --- Keep it running: the safe point under the supervisor. ---
    // A deterministic fault burst (SDC, DRAM CE bursts, hangs at the
    // exploited point) lands mid-run; the supervisor trips its breaker,
    // degrades in stages, quarantines the point and recovers, with every
    // epoch accounted and the resilience cost charged against the savings.
    operating_point_supervisor supervisor;
    tracer trace;
    metrics_registry metrics;
    supervisor.set_trace(trace_path ? &trace : nullptr,
                         metrics_path ? &metrics : nullptr);
    const epoch_fault_plan faults(epoch_fault_config{
        /*seed=*/41, /*sdc_rate=*/0.4, /*ce_burst_rate=*/0.6,
        /*hang_rate=*/0.2, /*ce_burst_words=*/16});
    const int burst_begin = epochs / 4;
    const int burst_end = burst_begin + 8;

    rng run_rng(8);
    int disruptions = 0;
    double supervised_w = 0.0;
    const auto wall_start = std::chrono::steady_clock::now();
    campaign_status heartbeat;
    heartbeat.campaign = "jammer_detector";
    heartbeat.tasks_total = static_cast<std::uint64_t>(epochs);
    heartbeat.workers = 1;
    for (int i = 0; i < epochs; ++i) {
        if (status_path) {
            heartbeat.running = true;
            heartbeat.tasks_done = static_cast<std::uint64_t>(i);
            heartbeat.worker_task = {static_cast<std::int64_t>(i)};
            heartbeat.replayed = supervisor.telemetry().replayed;
            heartbeat.aborted_rig = supervisor.telemetry().aborted;
            heartbeat.wall_elapsed_s =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
            publish_status(*status_path, heartbeat);
        }
        epoch_request request;
        request.pmd = 0;
        request.workload_class = "jammer";
        request.desired_voltage = safe.pmd_voltage;
        request.desired_refresh = safe.refresh_period;
        request.predicted_sdc = server.cpu().sdc_probability(
            snapshot.assignments, safe.pmd_voltage,
            static_cast<std::uint64_t>(i));

        const bool burst = i >= burst_begin && i < burst_end;
        const auto execute = [&](const epoch_plan& plan) {
            operating_point staged = safe;
            staged.pmd_voltage = plan.voltage;
            staged.refresh_period = plan.refresh;
            server.apply(staged);
            epoch_result result;
            result.outcome =
                server.execute(snapshot, static_cast<std::uint64_t>(i),
                               run_rng)
                    .outcome;
            result.epoch_power_w =
                server.read_sensors(snapshot).total_power().value;
            result.unsupervised_power_w = savings.total.tuned.value;
            if (burst && plan.stage == 0) {
                faults.apply(static_cast<std::uint64_t>(i), result);
            }
            return result;
        };
        const supervised_epoch epoch =
            run_supervised_epoch(supervisor, request, execute);
        disruptions += is_disruption(epoch.result.outcome) ? 1 : 0;
        supervised_w +=
            epoch.result.epoch_power_w + epoch.lost_power_w +
            (epoch.plan.sentinel
                 ? supervisor.config().sentinel_overhead *
                       epoch.result.epoch_power_w
                 : 0.0);
    }
    server.apply(safe);

    const health_telemetry& health = supervisor.telemetry();
    if (status_path) {
        // Final snapshot: a pure function of the supervised run's content
        // (deterministic at any GB_JOBS), no `live` object.
        campaign_status final_status;
        final_status.campaign = "jammer_detector";
        final_status.tasks_total = static_cast<std::uint64_t>(epochs);
        final_status.tasks_done = health.epochs;
        final_status.replayed = health.replayed;
        final_status.aborted_rig = health.aborted;
        if (!publish_artifact("jammer_detector", *status_path,
                              write_status_json(final_status))) {
            return 2;
        }
    }
    const double overhead_w_epochs = health.sentinel_overhead_w_epochs +
                                     health.degradation_overhead_w_epochs;
    const supervised_savings net = net_of_resilience(
        domain_savings{savings.total.nominal,
                       watts{(supervised_w - overhead_w_epochs) / epochs}},
        watts{overhead_w_epochs / epochs});

    std::cout << "\nsupervised deployment (" << epochs << " epochs): "
              << disruptions << " disrupted, " << health.breaker_trips
              << " breaker trips, " << health.watchdog_aborts
              << " watchdog aborts, " << health.detected_sdc << "+"
              << health.undetected_sdc << " SDC detected+missed\n"
              << "dispositions: " << health.committed << " committed, "
              << health.sentinel_epochs << " sentinel, " << health.replayed
              << " replayed, " << health.aborted << " aborted, "
              << health.quarantined_epochs << " quarantined\n"
              << "net saving at the supervised safe point: "
              << format_percent(net.net_saving_fraction(), 1)
              << " (resilience overhead "
              << format_number(net.resilience_overhead.value, 2)
              << " W), final state " << to_string(supervisor.state())
              << '\n';
    if (trace_path) {
        if (!publish_artifact("jammer_detector", *trace_path,
                              write_chrome_trace(trace))) {
            return 2;
        }
        std::cerr << "trace written to " << *trace_path << " ("
                  << trace.size() << " events)\n";
    }
    if (metrics_path) {
        health.publish(metrics, 0, health.epochs);
        if (!publish_artifact("jammer_detector", *metrics_path,
                              write_metrics_json(metrics.snapshot()))) {
            return 2;
        }
        std::cerr << "metrics written to " << *metrics_path << '\n';
    }
    if (!health.balanced()) {
        std::cerr << "FAIL: " << health.epochs - health.accounted()
                  << " unaccounted epochs\n";
        return 1;
    }
    if (epochs >= 96 && health.breaker_trips == 0) {
        std::cerr << "FAIL: the fault burst should trip >=1 breaker\n";
        return 1;
    }
    return 0;
}
