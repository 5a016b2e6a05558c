// Full undervolting characterization campaign, the Fig 2 workflow:
// initialization (benchmark list x voltage ladder x cores), execution
// (repetitions with watchdog), parsing (classification + final CSV).
//
//   $ ./undervolt_campaign [chip] [options] [benchmark ...]
//     chip: TTT (default), TFF or TSS
//     benchmark: a SPEC2006 or NAS name (default: the SPEC2006 suite); an
//                unknown name or argument exits 2 before any run
//     --journal <path>  append every completed run to a crash-safe journal
//     --resume <path>   restore completed runs from a journal, run the rest
//     --faults <rate>   inject rig faults (hangs/crashes/power-switch and
//                       log corruption) at the given per-run rate
//     --trace <path>    write a deterministic Chrome trace_event JSON of
//                       the campaign (byte-identical at any GB_JOBS)
//     --metrics <path>  write the merged metrics registry as flat JSON
//     --timeline <path> write the deterministic progress time-series as
//                       timeline.json (`gbreport timeline <path>` renders
//                       it; byte-identical at any GB_JOBS)
//     --status <path>   publish a live heartbeat snapshot (atomic JSON;
//                       the final snapshot is deterministic)
//
// Emits the per-run CSV on stdout and a classification summary per voltage
// on stderr, so `./undervolt_campaign TTT milc > runs.csv` captures the
// framework's final artifact.  With --journal, killing the process and
// re-running with --resume on the same path reproduces the uninterrupted
// CSV bit for bit.
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/fault_injection.hpp"
#include "harness/framework.hpp"
#include "harness/journal.hpp"
#include "harness/publish.hpp"
#include "harness/status.hpp"
#include "harness/timeseries/timeseries.hpp"
#include "harness/trace/metrics.hpp"
#include "harness/trace/trace.hpp"
#include "util/cli.hpp"
#include "workloads/cpu_profiles.hpp"

using namespace gb;

namespace {

/// With several benchmarks each campaign gets its own journal file, so a
/// resume never replays one benchmark's records into another's grid.
std::string journal_path_for(const std::string& base,
                             const std::string& benchmark,
                             std::size_t benchmark_count) {
    if (benchmark_count == 1) {
        return base;
    }
    return base + "." + benchmark;
}

} // namespace

int main(int argc, char** argv) {
    process_corner corner = process_corner::ttt;
    const std::optional<std::string> trace_path =
        take_flag_value(argc, argv, "--trace");
    const std::optional<std::string> metrics_path =
        take_flag_value(argc, argv, "--metrics");
    const std::optional<std::string> timeline_path =
        take_flag_value(argc, argv, "--timeline");
    const std::optional<std::string> status_path =
        take_flag_value(argc, argv, "--status");
    std::string journal_base =
        take_flag_value(argc, argv, "--journal").value_or("");
    const std::string resume_base =
        take_flag_value(argc, argv, "--resume").value_or("");
    const std::optional<double> fault_rate =
        ranged_flag(argc, argv, "--faults", 0.0, 0.0, 1.0);
    if (!fault_rate) {
        return 2;
    }
    // Every remaining argument is a corner or a benchmark name, resolved
    // here so a typo fails before any characterization runs.
    std::vector<const cpu_benchmark*> benchmarks;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "TTT") {
            corner = process_corner::ttt;
        } else if (arg == "TFF") {
            corner = process_corner::tff;
        } else if (arg == "TSS") {
            corner = process_corner::tss;
        } else {
            try {
                benchmarks.push_back(&find_cpu_benchmark(arg));
            } catch (const std::invalid_argument&) {
                std::cerr << "undervolt_campaign: unknown benchmark or "
                             "argument '"
                          << arg << "'\n";
                return 2;
            }
        }
    }
    if (benchmarks.empty()) {
        for (const cpu_benchmark& b : spec2006_suite()) {
            benchmarks.push_back(&b);
        }
    }
    if (!resume_base.empty() && journal_base.empty()) {
        // Resume keeps journaling to the same file by default, so a second
        // kill is just as recoverable as the first.
        journal_base = resume_base;
    }

    // Open every journal up front, so an unwritable path fails before
    // any characterization runs.
    std::vector<std::unique_ptr<campaign_journal>> journals;
    if (!journal_base.empty()) {
        try {
            for (const cpu_benchmark* entry : benchmarks) {
                journals.push_back(std::make_unique<campaign_journal>(
                    journal_path_for(journal_base, entry->name,
                                     benchmarks.size())));
            }
        } catch (const std::runtime_error& e) {
            std::cerr << "undervolt_campaign: " << e.what() << '\n';
            return 2;
        }
    }
    // The same for the heartbeat: a first live snapshot, which the
    // engine's heartbeats replace, proves the status path writable.
    if (status_path) {
        campaign_status starting;
        starting.campaign = "undervolt_campaign";
        starting.running = true;
        if (!publish_artifact("undervolt_campaign", *status_path,
                              write_status_json(starting))) {
            return 2;
        }
    }

    chip_model chip(make_chip(corner), make_xgene2_pdn());
    characterization_framework framework(chip, /*seed=*/2018);
    std::cerr << "characterizing chip " << chip.config().name << ", "
              << benchmarks.size() << " benchmark(s)\n";

    std::optional<fault_plan> faults;
    if (*fault_rate > 0.0) {
        faults = make_uniform_fault_plan(/*seed=*/2018, *fault_rate);
        std::cerr << "fault plan active: per-run fault rate " << *fault_rate
                  << '\n';
    }

    tracer trace;
    metrics_registry metrics;
    timeline_recorder timeline;
    const bool observing = trace_path || metrics_path;

    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        const cpu_benchmark& benchmark = *benchmarks[b];

        // Initialization phase: voltage ladder from nominal down to well
        // below every Vmin, on the most robust core.
        campaign_spec spec;
        spec.benchmark = benchmark.name;
        spec.repetitions = 10;
        for (double v = 980.0; v >= 840.0; v -= 10.0) {
            characterization_setup setup;
            setup.voltage = millivolts{v};
            setup.cores = {6};
            spec.setups.push_back(setup);
        }

        // Execution phase, optionally journaled / fault-injected / resumed.
        campaign_io io;
        if (faults) {
            io.faults = &*faults;
        }
        if (observing) {
            io.trace = trace_path ? &trace : nullptr;
            io.metrics = metrics_path ? &metrics : nullptr;
        }
        if (timeline_path) {
            io.timeline = &timeline;
        }
        if (status_path) {
            io.status_path = *status_path;
        }
        if (!journals.empty()) {
            io.journal = journals[b].get();
        }

        campaign_result result;
        if (!resume_base.empty()) {
            std::ifstream journal_in(journal_path_for(
                resume_base, benchmark.name, benchmarks.size()));
            result = framework.resume_campaign(spec, benchmark.loop,
                                               journal_in, io);
        } else {
            result = framework.run_campaign(spec, benchmark.loop, io);
        }

        // Parsing phase: summary per voltage + final CSV.
        std::cerr << benchmark.name << ":";
        for (const characterization_setup& setup : spec.setups) {
            const classification_summary summary =
                result.summarize_at(setup.voltage);
            if (summary.disruptions() > 0 || summary.corrected > 0) {
                std::cerr << ' ' << setup.voltage.value << "mV["
                          << summary.ok << "ok/" << summary.corrected
                          << "ce/" << summary.sdc << "sdc/" << summary.crash
                          << "crash]";
            }
        }
        std::cerr << "  (watchdog resets: " << result.watchdog_resets;
        if (result.stats.injected_faults() > 0 ||
            result.stats.replayed_tasks > 0) {
            std::cerr << ", rig faults: " << result.stats.injected_faults()
                      << ", retries: " << result.stats.retries
                      << ", aborted: " << result.stats.aborted_rig
                      << ", replayed: " << result.stats.replayed_tasks;
        }
        std::cerr << ")\n";
        write_campaign_csv(std::cout, result);
    }
    std::cerr << "total watchdog resets this session: "
              << framework.watchdog_resets() << '\n';
    if (trace_path) {
        if (!publish_artifact("undervolt_campaign", *trace_path,
                              write_chrome_trace(trace))) {
            return 2;
        }
        std::cerr << "trace written to " << *trace_path << " ("
                  << trace.size() << " events)\n";
    }
    if (metrics_path) {
        if (!publish_artifact("undervolt_campaign", *metrics_path,
                              write_metrics_json(metrics.snapshot()))) {
            return 2;
        }
        std::cerr << "metrics written to " << *metrics_path << '\n';
    }
    if (timeline_path) {
        if (!publish_artifact("undervolt_campaign", *timeline_path,
                              write_timeline_json(timeline))) {
            return 2;
        }
        std::cerr << "timeline written to " << *timeline_path << " ("
                  << timeline.series_count() << " series, "
                  << timeline.sample_count() << " samples)\n";
    }
    return 0;
}
