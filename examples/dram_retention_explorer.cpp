// DRAM retention exploration under the thermal testbed: heat the DIMMs to a
// target temperature with the PID rig, walk a ladder of refresh periods, and
// report weak-cell exposure, ECC containment and the resulting safe period
// (the Section IV.C flow behind Table I and Fig 8).
//
//   $ ./dram_retention_explorer [temperature_c] [max_relaxation] [options]
//     defaults: 60 C, 35x
//     --trace <path>    write a deterministic Chrome trace_event JSON of
//                       the refresh ladder (one task span per step)
//     --metrics <path>  write the exploration counters/gauges as flat JSON
//     --status <path>   live heartbeat around the regulation/ladder phases;
//                       the final snapshot is deterministic
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "core/explorer.hpp"
#include "dram/power.hpp"
#include "harness/status.hpp"
#include "harness/trace/metrics.hpp"
#include "harness/trace/trace.hpp"
#include "thermal/testbed.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workloads/dram_profiles.hpp"

using namespace gb;

int main(int argc, char** argv) {
    const std::optional<std::string> trace_path =
        take_flag_value(argc, argv, "--trace");
    const std::optional<std::string> metrics_path =
        take_flag_value(argc, argv, "--metrics");
    const std::optional<std::string> status_path =
        take_flag_value(argc, argv, "--status");
    const double target_c =
        double_arg(argc, argv, 1, 60.0, "temperature_c", 20.0, 90.0);
    const double max_relaxation =
        double_arg(argc, argv, 2, 35.0, "max_relaxation", 1.0, 64.0);
    if (leftover_argument(argc, argv, 3)) {
        return 2;
    }
    const milliseconds max_period{64.0 * max_relaxation};

    // Heartbeat: the refresh ladder's steps are the exploration's tasks.
    const auto wall_start = std::chrono::steady_clock::now();
    campaign_status heartbeat;
    heartbeat.campaign = "dram_retention";
    heartbeat.workers = 1;
    const auto beat = [&](std::uint64_t total, std::uint64_t done) {
        if (!status_path) {
            return;
        }
        heartbeat.running = true;
        heartbeat.tasks_total = total;
        heartbeat.tasks_done = done;
        heartbeat.worker_task = {static_cast<std::int64_t>(done)};
        heartbeat.wall_elapsed_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          wall_start)
                .count();
        publish_status(*status_path, heartbeat);
    };
    beat(0, 0);

    memory_system memory(
        xgene2_memory_geometry(), retention_model{}, /*seed=*/2018,
        study_limits{celsius{target_c + 2.0}, max_period});

    // Regulate the DIMMs, then lock their temperatures into the model.
    thermal_testbed testbed(memory.geometry().dimms, thermal_plant_config{},
                            /*seed=*/7);
    testbed.set_all_targets(celsius{target_c});
    testbed.run(/*duration_s=*/3600.0, /*control_period_s=*/1.0,
                /*settle_s=*/900.0);
    testbed.apply_to(memory);
    std::cout << "DIMMs regulated to " << target_c << " C (max deviation "
              << format_number(testbed.max_deviation_c(0), 2) << " C)\n\n";

    // Walk the refresh ladder.
    std::vector<milliseconds> ladder;
    for (double factor = 1.0; factor <= max_relaxation; factor *= 2.0) {
        ladder.push_back(milliseconds{64.0 * factor});
    }
    ladder.push_back(max_period);
    beat(ladder.size(), 0);
    const refresh_exploration exploration =
        guardband_explorer::explore_refresh(memory, ladder);

    // Observability: the ladder as one campaign span owning one task span
    // per refresh step, ticks derived from content (failed cells), so the
    // artifacts feed the same gbreport analyses as the engine's traces.
    tracer trace;
    metrics_registry metrics;
    const std::uint32_t phase = trace.allocate_phase();
    const counter_handle m_steps = metrics.counter("dram.steps");
    const counter_handle m_cells = metrics.counter("dram.failed_cells");
    const counter_handle m_uncontained =
        metrics.counter("dram.uncontained_steps");
    const gauge_handle m_safe = metrics.gauge("dram.max_safe_period_ms");
    std::uint64_t ladder_ticks = 0;

    text_table table({"TREFP ms", "relaxation", "worst failed bits",
                      "ECC contains"});
    std::uint64_t step_index = 0;
    for (const refresh_step& step : exploration.steps) {
        table.add_row({format_number(step.period.value, 0),
                       format_number(step.period.value / 64.0, 1) + "x",
                       std::to_string(step.worst_scan.failed_cells),
                       step.fully_corrected ? "yes" : "NO"});
        trace_span span;
        span.name = "task";
        span.category = "engine";
        span.at = trace_point{track_rig, phase, step_index, 0};
        span.duration_ticks = 100 + step.worst_scan.failed_cells;
        span.args.emplace_back("index", std::to_string(step_index));
        trace.record(0, std::move(span));
        ladder_ticks += 100 + step.worst_scan.failed_cells;
        metrics.add(0, m_steps);
        metrics.add(0, m_cells, step.worst_scan.failed_cells);
        if (!step.fully_corrected) {
            metrics.add(0, m_uncontained);
        }
        ++step_index;
    }
    {
        trace_span span;
        span.name = "dram_retention";
        span.category = "campaign";
        span.at = trace_point{track_campaign, phase, 0, 0};
        span.duration_ticks = ladder_ticks;
        span.args.emplace_back("tasks", std::to_string(step_index));
        span.args.emplace_back("first_index", "0");
        span.args.emplace_back("faults", "0");
        trace.record(0, std::move(span));
    }
    metrics.set(0, m_safe, /*order=*/0, exploration.max_safe_period.value);
    table.render(std::cout);
    std::cout << "\nmax safe refresh period: "
              << exploration.max_safe_period.value << " ms ("
              << format_number(exploration.max_safe_period.value / 64.0, 1)
              << "x nominal)\n";

    // Price it for the Rodinia set.
    const dram_power_model power;
    std::cout << "\nDRAM power savings at the safe period:\n";
    for (const dram_workload& workload : rodinia_suite()) {
        std::cout << "  " << workload.name << ": "
                  << format_percent(power.refresh_relaxation_saving(
                                        exploration.max_safe_period,
                                        workload.bandwidth_gbps),
                                    1)
                  << '\n';
    }
    if (status_path) {
        // Final snapshot: pure function of the ladder's content, no `live`
        // object.
        campaign_status final_status;
        final_status.campaign = "dram_retention";
        final_status.tasks_total = step_index;
        final_status.tasks_done = step_index;
        publish_status(*status_path, final_status);
    }
    if (trace_path) {
        std::ofstream out(*trace_path);
        write_chrome_trace(out, trace);
        std::cerr << "trace written to " << *trace_path << " ("
                  << trace.size() << " events)\n";
    }
    if (metrics_path) {
        std::ofstream out(*metrics_path);
        write_metrics_json(out, metrics);
        std::cerr << "metrics written to " << *metrics_path << '\n';
    }
    return 0;
}
