// Virus laboratory: evolve a dI/dt virus with the GA against the EM probe,
// inspect what it learned, and measure the margin it leaves on each of the
// three characterized chips (the Section III.C / Fig 6-7 methodology).
//
//   $ ./virus_lab [generations] [options]
//     --trace <path>    deterministic Chrome trace (GA + per-chip margin
//                       tasks under one campaign span)
//     --metrics <path>  evolution counters/gauges as flat JSON
//     --status <path>   live heartbeat (GA, then one tick per chip margin);
//                       the final snapshot is deterministic
#include <chrono>
#include <cmath>
#include <iostream>
#include <optional>
#include <string>

#include "chip/chip_model.hpp"
#include "em/em_probe.hpp"
#include "ga/virus_search.hpp"
#include "harness/publish.hpp"
#include "harness/status.hpp"
#include "harness/trace/metrics.hpp"
#include "harness/trace/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace gb;

int main(int argc, char** argv) {
    const std::optional<std::string> trace_path =
        take_flag_value(argc, argv, "--trace");
    const std::optional<std::string> metrics_path =
        take_flag_value(argc, argv, "--metrics");
    const std::optional<std::string> status_path =
        take_flag_value(argc, argv, "--status");
    const auto generations = static_cast<std::size_t>(
        int_arg(argc, argv, 1, 150, "generations", 1, 100000));
    if (leftover_argument(argc, argv, 2)) {
        return 2;
    }

    // Heartbeat: the GA plus the three chip-margin analyses are the lab's
    // four tasks.
    const auto wall_start = std::chrono::steady_clock::now();
    campaign_status heartbeat;
    heartbeat.campaign = "virus_lab";
    heartbeat.tasks_total = 4;
    heartbeat.workers = 1;
    const auto beat = [&](std::uint64_t done) {
        if (!status_path) {
            return;
        }
        heartbeat.running = true;
        heartbeat.tasks_done = done;
        heartbeat.worker_task = {static_cast<std::int64_t>(done)};
        heartbeat.wall_elapsed_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          wall_start)
                .count();
        publish_status(*status_path, heartbeat);
    };
    beat(0);

    const pipeline_model pipeline(nominal_core_frequency);
    const pdn_parameters pdn = make_xgene2_pdn();
    std::cout << "PDN resonance: " << pdn.resonant_frequency_hz() / 1.0e6
              << " MHz = "
              << pdn_model(pdn, nominal_pmd_voltage, nominal_core_frequency)
                     .resonance_period_cycles()
              << " cycles at 2.4 GHz\n";

    ga_config config;
    config.population_size = 96;
    config.generations = generations;
    rng ga_rng(7);
    const virus_search_result result =
        evolve_didt_virus(pipeline, pdn, config, ga_rng);

    const em_probe probe(pdn.resonant_frequency_hz(), pipeline.clock());
    const double ideal = probe.amplitude(
        pipeline.execute(make_square_wave_kernel(24, 24), 4096)
            .current_trace);
    std::cout << "evolved EM amplitude " << result.em_amplitude << " ("
              << format_percent(result.em_amplitude / ideal, 0)
              << " of the square-wave ideal) after " << generations
              << " generations\n\nevolved loop:";
    opcode last = result.virus.body.front();
    int run = 0;
    for (const opcode op : result.virus.body) {
        if (op == last) {
            ++run;
            continue;
        }
        std::cout << ' ' << traits_of(last).name << 'x' << run;
        last = op;
        run = 1;
    }
    std::cout << ' ' << traits_of(last).name << 'x' << run << "\n\n";

    // Observability: the GA plus each chip's margin analysis as task spans
    // under one campaign span, ticks derived from content (generation
    // count, revealed Vmin), never from wall time.
    tracer trace;
    metrics_registry metrics;
    const std::uint32_t phase = trace.allocate_phase();
    const counter_handle m_generations = metrics.counter("virus.generations");
    const gauge_handle m_amplitude = metrics.gauge("virus.em_amplitude");
    metrics.add(0, m_generations, generations);
    metrics.set(0, m_amplitude, /*order=*/0, result.em_amplitude);
    std::uint64_t lab_ticks = 100 + generations;
    {
        trace_span span;
        span.name = "task";
        span.category = "engine";
        span.at = trace_point{track_rig, phase, 0, 0};
        span.duration_ticks = 100 + generations;
        span.args.emplace_back("index", "0");
        trace.record(0, std::move(span));
    }

    // Margins per chip, one virus instance per core.
    const execution_profile profile = pipeline.execute(result.virus, 8192);
    std::vector<core_assignment> all;
    for (int c = 0; c < cores_per_chip; ++c) {
        all.push_back({c, &profile, nominal_core_frequency});
    }
    text_table table({"chip", "virus Vmin mV", "margin to nominal mV"});
    const std::uint64_t launch = hash_label("ga_didt_virus");
    std::uint64_t task_index = 1;
    for (const chip_config& cfg :
         {make_ttt_chip(), make_tff_chip(), make_tss_chip()}) {
        beat(task_index);
        const chip_model chip(cfg, make_xgene2_pdn());
        const vmin_analysis analysis = chip.analyze(all, launch);
        table.add_row({cfg.name, format_number(analysis.vmin.value, 0),
                       format_number(
                           nominal_pmd_voltage.value - analysis.vmin.value,
                           0)});
        const auto vmin_ticks =
            static_cast<std::uint64_t>(std::llround(analysis.vmin.value));
        trace_span span;
        span.name = "task";
        span.category = "engine";
        span.at = trace_point{track_rig, phase, task_index, 0};
        span.duration_ticks = 100 + vmin_ticks;
        span.args.emplace_back("index", std::to_string(task_index));
        trace.record(0, std::move(span));
        lab_ticks += 100 + vmin_ticks;
        const gauge_handle m_vmin =
            metrics.gauge("virus.vmin_mv." + cfg.name);
        metrics.set(0, m_vmin, /*order=*/0, analysis.vmin.value);
        ++task_index;
    }
    table.render(std::cout);
    {
        trace_span span;
        span.name = "virus_lab";
        span.category = "campaign";
        span.at = trace_point{track_campaign, phase, 0, 0};
        span.duration_ticks = lab_ticks;
        span.args.emplace_back("tasks", std::to_string(task_index));
        span.args.emplace_back("first_index", "0");
        span.args.emplace_back("faults", "0");
        trace.record(0, std::move(span));
    }
    if (status_path) {
        // Final snapshot: pure function of the lab's content, no `live`
        // object.
        campaign_status final_status;
        final_status.campaign = "virus_lab";
        final_status.tasks_total = 4;
        final_status.tasks_done = task_index;
        if (!publish_artifact("virus_lab", *status_path,
                              write_status_json(final_status))) {
            return 2;
        }
    }
    if (trace_path) {
        if (!publish_artifact("virus_lab", *trace_path,
                              write_chrome_trace(trace))) {
            return 2;
        }
        std::cerr << "trace written to " << *trace_path << " ("
                  << trace.size() << " events)\n";
    }
    if (metrics_path) {
        if (!publish_artifact("virus_lab", *metrics_path,
                              write_metrics_json(metrics.snapshot()))) {
            return 2;
        }
        std::cerr << "metrics written to " << *metrics_path << '\n';
    }
    return 0;
}
