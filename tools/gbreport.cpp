// gbreport: analysis CLI over the observability artifacts the campaign
// stack emits (--trace / --metrics / --journal / --status files).
//
//   gbreport summary --journal FILE          per-core Vmin / weak-cell rollup
//   gbreport critical-path --trace FILE      heaviest campaign + tasks
//   gbreport utilization --trace FILE        simulated worker utilization
//   gbreport timeline --trace FILE           fault/supervisor event timeline
//   gbreport timeline FILE                   timeline.json series + sparklines
//   gbreport alerts FILE [--rules SPEC]      alert gate; exit 1 when firing
//   gbreport status FILE                     render a heartbeat snapshot
//   gbreport audit --metrics FILE            SDC detection/escape rollup
//   gbreport diff BASELINE CANDIDATE         metrics regression gate
//
// Every analysis is a pure function of the artifact bytes, which are
// themselves byte-identical at any GB_JOBS -- so gbreport output is too.
// Exit codes: 0 success, 1 diff regression, 2 usage error (an unknown
// argument included) or malformed artifact.  Malformed input always
// yields a one-line `gbreport:` diagnostic on stderr, never a crash (the
// rig-fault injector corrupts logs by design).
#include <algorithm>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "harness/report/analysis.hpp"
#include "harness/report/artifacts.hpp"
#include "harness/status.hpp"
#include "harness/timeseries/alerts.hpp"
#include "util/cli.hpp"

namespace {

using namespace gb;
using namespace gb::report;

constexpr int exit_ok = 0;
constexpr int exit_regression = 1;
constexpr int exit_usage = 2;

int usage() {
    std::cerr
        << "usage: gbreport <command> [options]\n"
        << "  summary --journal FILE            campaign rollup from a task "
           "journal\n"
        << "  critical-path --trace FILE [--top N]\n"
        << "                                    heaviest campaign and tasks\n"
        << "  utilization --trace FILE [--workers N]\n"
        << "                                    simulated worker "
           "utilization/imbalance\n"
        << "  timeline --trace FILE [--metrics FILE]\n"
        << "                                    fault/supervisor timeline\n"
        << "  timeline FILE                     timeline.json per-series "
           "summary + sparklines\n"
        << "  alerts FILE [--rules SPEC]        alert gate over a "
           "timeline.json; exit 1 when firing\n"
        << "  status FILE                       render a heartbeat snapshot\n"
        << "  audit --metrics FILE              SDC detection rollup; exit 1 "
           "when corruptions escaped\n"
        << "  diff BASELINE CANDIDATE [--tolerance [NAME=]FRACTION]...\n"
        << "                                    compare metrics artifacts; "
           "exit 1 on regression\n";
    return exit_usage;
}

int fail(const std::string& message) {
    std::cerr << "gbreport: " << message << "\n";
    return exit_usage;
}

std::optional<std::string> required_flag(int& argc, char** argv,
                                         std::string_view flag) {
    auto value = take_flag_value(argc, argv, flag);
    if (!value) {
        std::cerr << "gbreport: missing required " << flag << " FILE\n";
    }
    return value;
}

/// True when argv holds exactly `count` positionals after the command;
/// otherwise prints `missing` (too few) or the first leftover argument.
bool positionals(int argc, char** argv, int count,
                 const std::string& missing) {
    if (argc < 2 + count) {
        fail(missing);
        return false;
    }
    return !leftover_argument(argc, argv, 2 + count);
}

/// Trace-based commands share the load-and-model preamble.
std::optional<trace_model> model_from(const std::string& path) {
    std::string error;
    auto artifact = load_trace_file(path, error);
    if (!artifact) {
        std::cerr << "gbreport: " << error << "\n";
        return std::nullopt;
    }
    auto model = build_trace_model(std::move(*artifact), error);
    if (!model) {
        std::cerr << "gbreport: " << path << ": " << error << "\n";
    }
    return model;
}

int run_summary(int argc, char** argv) {
    const auto journal_path = required_flag(argc, argv, "--journal");
    if (!journal_path || leftover_argument(argc, argv, 2)) {
        return exit_usage;
    }
    std::string error;
    const auto journal = load_journal_file(*journal_path, error);
    if (!journal) {
        return fail(error);
    }
    render_summary(std::cout, *journal);
    return exit_ok;
}

int run_critical_path(int argc, char** argv) {
    const auto trace_path = required_flag(argc, argv, "--trace");
    const auto top = ranged_flag(argc, argv, "--top", 5LL, 1, 1000000);
    if (!trace_path || !top || leftover_argument(argc, argv, 2)) {
        return exit_usage;
    }
    const auto model = model_from(*trace_path);
    if (!model) {
        return exit_usage;
    }
    render_critical_path(std::cout, *model, static_cast<std::size_t>(*top));
    return exit_ok;
}

int run_utilization(int argc, char** argv) {
    const auto trace_path = required_flag(argc, argv, "--trace");
    const auto workers = ranged_flag(argc, argv, "--workers", 8LL, 1, 256);
    if (!trace_path || !workers || leftover_argument(argc, argv, 2)) {
        return exit_usage;
    }
    const auto model = model_from(*trace_path);
    if (!model) {
        return exit_usage;
    }
    render_utilization(std::cout, simulate_utilization(
                                      *model, static_cast<int>(*workers)));
    return exit_ok;
}

/// Fixed ASCII level ladder, scaled to the retained window's own
/// min/max -- a pure function of the sample values, so the rendering is
/// byte-identical wherever the artifact is.
std::string sparkline(const std::vector<ts_sample>& samples) {
    constexpr std::string_view levels = "_.:-=+*#";
    double lo = 0.0;
    double hi = 0.0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        lo = i == 0 ? samples[i].value : std::min(lo, samples[i].value);
        hi = i == 0 ? samples[i].value : std::max(hi, samples[i].value);
    }
    std::string out;
    out.reserve(samples.size());
    for (const ts_sample& sample : samples) {
        std::size_t level = 0;
        if (hi > lo) {
            const double unit = (sample.value - lo) / (hi - lo);
            level = static_cast<std::size_t>(
                unit * static_cast<double>(levels.size() - 1) + 0.5);
            level = std::min(level, levels.size() - 1);
        }
        out += levels[level];
    }
    return out;
}

int render_timeline_artifact(const std::string& path) {
    std::string error;
    const auto timeline = load_timeline_file(path, error);
    if (!timeline) {
        return fail(error);
    }
    std::cout << "timeline: " << timeline->series.size() << " series, "
              << timeline->samples() << " samples retained";
    if (timeline->truncated_tail) {
        std::cout << " (truncated tail: partial write dropped)";
    }
    std::cout << "\n";
    std::size_t width = 0;
    for (const series_snapshot& series : timeline->series) {
        width = std::max(width, series.name.size());
    }
    for (const series_snapshot& series : timeline->series) {
        std::cout << "  " << series.name
                  << std::string(width - series.name.size(), ' ')
                  << "  count=" << series.count << " min=" << series.min
                  << " max=" << series.max << " last=" << series.last
                  << "  [" << sparkline(series.samples) << "]\n";
    }
    std::cout << "alerts: " << timeline->alert_rules << " rules, "
              << timeline->firing.size() << " firing, "
              << timeline->events.size() << " events\n";
    for (const std::string& label : timeline->firing) {
        std::cout << "  FIRING " << label << "\n";
    }
    return exit_ok;
}

int run_timeline(int argc, char** argv) {
    // Two artifacts share the name: `--trace` renders the trace-based
    // fault/supervisor timeline, a positional FILE renders a
    // timeline.json from the fleet observatory.
    const auto trace_path = take_flag_value(argc, argv, "--trace");
    if (!trace_path) {
        if (!positionals(argc, argv, 1,
                         "timeline wants --trace FILE or a timeline.json "
                         "FILE")) {
            return exit_usage;
        }
        return render_timeline_artifact(argv[2]);
    }
    const auto metrics_path = take_flag_value(argc, argv, "--metrics");
    if (leftover_argument(argc, argv, 2)) {
        return exit_usage;
    }
    std::optional<metrics_snapshot> metrics;
    if (metrics_path) {
        std::string error;
        metrics = load_metrics_file(*metrics_path, error);
        if (!metrics) {
            return fail(error);
        }
    }
    const auto model = model_from(*trace_path);
    if (!model) {
        return exit_usage;
    }
    render_timeline(std::cout, *model, metrics ? &*metrics : nullptr);
    return exit_ok;
}

int run_alerts(int argc, char** argv) {
    const auto rules_path = take_flag_value(argc, argv, "--rules");
    if (!positionals(argc, argv, 1, "alerts wants a timeline.json FILE")) {
        return exit_usage;
    }
    std::string error;
    const auto timeline = load_timeline_file(argv[2], error);
    if (!timeline) {
        return fail(error);
    }
    if (rules_path) {
        // Re-run the stateless evaluator over the artifact's series: the
        // gate can try rules the producing daemon never loaded.  Parse
        // errors carry path:line and map to exit 2 like any usage error.
        const auto rules = load_alert_rules_file(*rules_path, error);
        if (!rules) {
            return fail(error);
        }
        const auto matches = evaluate_alert_rules(*rules, timeline->series);
        std::cout << "alerts: " << rules->size() << " rules over "
                  << timeline->series.size() << " series, "
                  << matches.size() << " firing\n";
        for (const alert_match& match : matches) {
            std::cout << "  FIRING " << match.rule->name << ": "
                      << match.series << " " << to_string(match.rule->op)
                      << " " << match.rule->threshold << " (measure "
                      << match.value << ")\n";
        }
        return matches.empty() ? exit_ok : exit_regression;
    }
    std::cout << "alerts: " << timeline->alert_rules << " rules, "
              << timeline->firing.size() << " firing, "
              << timeline->events.size() << " events\n";
    for (const std::string& label : timeline->firing) {
        std::cout << "  FIRING " << label << "\n";
    }
    return timeline->firing.empty() ? exit_ok : exit_regression;
}

int run_status(int argc, char** argv) {
    if (!positionals(argc, argv, 1, "status wants a snapshot FILE")) {
        return exit_usage;
    }
    std::string error;
    const auto status = load_status_file(argv[2], error);
    if (!status) {
        return fail(error);
    }
    std::cout << "campaign: "
              << (status->campaign.empty() ? "(unnamed)" : status->campaign)
              << (status->running ? " [running]" : " [finished]") << "\n"
              << "tasks: " << status->tasks_done << "/"
              << status->tasks_total << "\n"
              << "rig faults: " << status->injected_faults << " ("
              << status->retries << " retries, " << status->aborted_rig
              << " aborted), " << status->replayed << " replayed, "
              << status->rig_downtime_ms << " ms simulated downtime\n";
    const fleet_status* fleet = status->fleet ? &*status->fleet : nullptr;
    if (fleet != nullptr && fleet->degraded.cohorts > 0) {
        std::cout << "degraded: " << fleet->degraded.cohorts << " cohorts ("
                  << fleet->degraded.nodes
                  << " nodes) quarantined at the nominal bin cap\n";
    }
    // The observatory section is optional (plain heartbeats and fleets
    // without a timeline never carry it): render a stable placeholder
    // rather than omitting the line, so consumers that key on it see the
    // same shape either way.
    if (fleet != nullptr && fleet->timeline) {
        const status_timeline& timeline = *fleet->timeline;
        std::cout << "timeline: " << timeline.series << " series, "
                  << timeline.samples << " samples, " << timeline.rules
                  << " rules, " << timeline.firing.size() << " firing ("
                  << timeline.events << " events)\n";
        for (const std::string& label : timeline.firing) {
            std::cout << "  FIRING " << label << "\n";
        }
    } else {
        std::cout << "timeline: (not recorded)\n";
    }
    if (status->running && !status->worker_task.empty()) {
        std::cout << "workers (" << status->workers << "):";
        for (const std::int64_t task : status->worker_task) {
            if (task < 0) {
                std::cout << " idle";
            } else {
                std::cout << " #" << task;
            }
        }
        std::cout << "\nwall elapsed: " << status->wall_elapsed_s << " s\n";
    }
    return exit_ok;
}

int run_audit(int argc, char** argv) {
    const auto metrics_path = required_flag(argc, argv, "--metrics");
    if (!metrics_path || leftover_argument(argc, argv, 2)) {
        return exit_usage;
    }
    std::string error;
    const auto metrics = load_metrics_file(*metrics_path, error);
    if (!metrics) {
        return fail(error);
    }
    const audit_report report = build_audit_report(*metrics);
    if (!report.present) {
        return fail(*metrics_path +
                    ": no integrity.* gauges (integrity defenses were off "
                    "for this run; nothing to audit)");
    }
    render_audit(std::cout, report);
    return report.clean() ? exit_ok : exit_regression;
}

int run_diff(int argc, char** argv) {
    diff_options options;
    // Repeated --tolerance flags: bare FRACTION sets the default,
    // NAME=FRACTION (NAME may end in '*') adds an override.
    while (auto spec = take_flag_value(argc, argv, "--tolerance")) {
        const std::size_t equals = spec->rfind('=');
        const std::string number =
            equals == std::string::npos ? *spec : spec->substr(equals + 1);
        const auto fraction = parse_number(number);
        if (!fraction || *fraction < 0.0) {
            return fail("--tolerance wants [NAME=]FRACTION with a "
                        "non-negative fraction, got '" +
                        *spec + "'");
        }
        if (equals == std::string::npos) {
            options.default_tolerance = *fraction;
        } else if (equals == 0) {
            return fail("--tolerance override needs a metric name before "
                        "'='");
        } else {
            options.overrides.emplace_back(spec->substr(0, equals),
                                           *fraction);
        }
    }
    if (!positionals(argc, argv, 2,
                     "diff wants BASELINE and CANDIDATE metrics files")) {
        return exit_usage;
    }
    std::string error;
    const auto baseline = load_metrics_file(argv[2], error);
    if (!baseline) {
        return fail(error);
    }
    const auto candidate = load_metrics_file(argv[3], error);
    if (!candidate) {
        return fail(error);
    }
    const diff_report report = diff_metrics(*baseline, *candidate, options);
    render_diff(std::cout, report);
    return report.failed() ? exit_regression : exit_ok;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        return usage();
    }
    const std::string_view command = argv[1];
    if (command == "summary") {
        return run_summary(argc, argv);
    }
    if (command == "critical-path") {
        return run_critical_path(argc, argv);
    }
    if (command == "utilization") {
        return run_utilization(argc, argv);
    }
    if (command == "timeline") {
        return run_timeline(argc, argv);
    }
    if (command == "alerts") {
        return run_alerts(argc, argv);
    }
    if (command == "status") {
        return run_status(argc, argv);
    }
    if (command == "audit") {
        return run_audit(argc, argv);
    }
    if (command == "diff") {
        return run_diff(argc, argv);
    }
    std::cerr << "gbreport: unknown command '" << command << "'\n";
    return usage();
}
