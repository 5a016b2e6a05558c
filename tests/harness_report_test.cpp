// Consume-side tests for the observability stack: the strict artifact
// readers (exact 64-bit integers, hostile input, mutation corpora), the
// artifact loaders, the trace-model round-trip over the checked-in golden
// traces, the list-scheduling policy of the utilization simulation, and
// the metrics-diff edge cases the CI perf gate depends on (zero
// baselines, missing metrics, exactly-at-threshold changes, tolerance
// precedence).
#include "harness/report/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "harness/report/artifacts.hpp"
#include "harness/status.hpp"
#include "harness/timeseries/alerts.hpp"
#include "harness/timeseries/timeseries.hpp"
#include "harness/trace/trace.hpp"
#include "record_mutations.hpp"
#include "util/json_codec.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace gb::report {
namespace {

std::string golden_path(const std::string& name) {
    return std::string(GB_GOLDEN_DIR) + "/" + name;
}

std::string temp_file(const std::string& name, const std::string& content) {
    const std::string path = ::testing::TempDir() + name;
    std::ofstream out(path, std::ios::trunc);
    out << content;
    return path;
}

/// A metrics document as write_metrics_json renders it.
std::string metrics_text(std::string_view counters, std::string_view gauges) {
    return "{\n  \"counters\": {" + std::string(counters) +
           "},\n  \"gauges\": {" + std::string(gauges) +
           "},\n  \"histograms\": {}\n}\n";
}

// --- the strict readers ---------------------------------------------------

TEST(ReportJson, PreservesExact64BitIntegers) {
    // Above 2^53 a double silently rounds; counters (content hashes) need
    // every bit, up to 2^64 - 1 and no further.
    std::string error;
    for (const std::uint64_t hash :
         {4857721278376709091ULL, 18446744073709551614ULL,
          18446744073709551615ULL}) {
        metrics_snapshot snapshot;
        snapshot.counters.emplace_back("content.hash", hash);
        const auto read =
            read_metrics_json(write_metrics_json(snapshot), error);
        ASSERT_TRUE(read.has_value()) << error;
        EXPECT_EQ(read->counter_value("content.hash"), hash);
    }
    EXPECT_FALSE(read_metrics_json(
        metrics_text("\n    \"content.hash\": 18446744073709551616\n  ", ""),
        error));
    EXPECT_EQ(error, "metrics: byte 38: not what the metrics writer renders");
}

TEST(ReportJson, SignedIntegerBounds) {
    // A signed field reads its whole range and nothing past it; an
    // unsigned one reads no sign at all, "-0" included.
    campaign_status status;
    status.campaign = "bounds";
    status.fleet.emplace().bins = {{-9223372036854775807LL - 1, 1},
                                   {9223372036854775807LL, 2}};
    const std::string text = write_status_json(status);
    std::string error;
    const auto read = read_status_json(text, error);
    ASSERT_TRUE(read.has_value()) << error;
    EXPECT_EQ(read->fleet->bins, status.fleet->bins);
    std::string below = text;
    below.replace(below.find("-9223372036854775808"), 20,
                  "-9223372036854775809");
    EXPECT_FALSE(read_status_json(below, error).has_value());
    for (const char* counter : {"-1", "-0"}) {
        EXPECT_FALSE(read_metrics_json(
            metrics_text("\n    \"a\": " + std::string(counter) + "\n  ", ""),
            error));
    }
}

TEST(ReportJson, NonIntegralNumbers) {
    // A counter reads only integers; a gauge reads a number only in its
    // shortest round-trip spelling.
    std::string error;
    for (const char* counter : {"1.5", "1e3", "1000.0"}) {
        EXPECT_FALSE(read_metrics_json(
            metrics_text("\n    \"a\": " + std::string(counter) + "\n  ", ""),
            error))
            << counter;
    }
    const auto gauge =
        read_metrics_json(metrics_text("", "\n    \"g\": 1.5\n  "), error);
    ASSERT_TRUE(gauge.has_value()) << error;
    EXPECT_DOUBLE_EQ(gauge->gauge_value("g"), 1.5);
    for (const char* respelt : {"1.50", "1.5e0", "+1.5", "15e-1"}) {
        EXPECT_FALSE(read_metrics_json(
            metrics_text("", "\n    \"g\": " + std::string(respelt) + "\n  "),
            error))
            << respelt;
    }
}

TEST(ReportJson, RejectsMalformedInput) {
    const char* hostile[] = {
        "",                      // empty
        "{",                     // truncated object
        "[1, 2",                 // truncated array
        "{\"a\": 1} trailing",   // trailing bytes
        "\"unterminated",        // unterminated string
        "\"bad \\q escape\"",    // unknown escape
        "\"\\ud800 alone\"",     // unpaired high surrogate
        "\"\\udc00\"",           // unpaired low surrogate
        "\"ctrl \x01 byte\"",    // raw control byte
        "1e999",                 // out of double range
        "nan",                   // not a JSON literal
        "{\"a\" 1}",             // missing colon
        "tru",                   // truncated literal
    };
    for (const char* input : hostile) {
        std::string error;
        EXPECT_FALSE(read_metrics_json(input, error).has_value()) << input;
        EXPECT_EQ(error.rfind("metrics: byte ", 0), 0U) << error;
        EXPECT_FALSE(read_chrome_trace(input, error).has_value()) << input;
        EXPECT_EQ(error.rfind("trace: byte ", 0), 0U) << error;
        EXPECT_FALSE(read_status_json(input, error).has_value()) << input;
        EXPECT_EQ(error.rfind("status: byte ", 0), 0U) << error;
    }
}

TEST(ReportJson, EveryAsciiByteRoundTripsThroughTheReaders) {
    // Quotes, backslashes and control bytes reach each format escaped and
    // come back as they were: a metric name, a series name (the recorder
    // takes no spaces) and a trace name and arg.
    std::string ascii;
    for (int byte = 0; byte < 0x80; ++byte) {
        ascii += static_cast<char>(byte);
    }
    std::string error;

    metrics_snapshot snapshot;
    snapshot.gauges.emplace_back(ascii, 0.5);
    const auto metrics =
        read_metrics_json(write_metrics_json(snapshot), error);
    ASSERT_TRUE(metrics.has_value()) << error;
    EXPECT_EQ(metrics->gauges.front().first, ascii);

    std::string spaceless = ascii;
    spaceless.erase(spaceless.find(' '), 1);
    timeline_recorder recorder;
    recorder.append(spaceless, recorder.advance(), 1.0);
    const auto timeline =
        read_timeline_json(write_timeline_json(recorder), error);
    ASSERT_TRUE(timeline.has_value()) << error;
    EXPECT_EQ(timeline->series.front().name, spaceless);

    tracer trace;
    trace_span span;
    span.name = ascii;
    span.args = {{ascii, ascii}};
    trace.record(0, span);
    const auto artifact = read_chrome_trace(write_chrome_trace(trace), error);
    ASSERT_TRUE(artifact.has_value()) << error;
    ASSERT_EQ(artifact->events.size(), 2U); // thread_name + the span
    EXPECT_EQ(artifact->events[1].name, ascii);
    EXPECT_EQ(artifact->events[1].args, span.args);

    // Only json_escape's spelling reads: no other escape of the same byte.
    for (const char* respelt : {"\\u0041", "\\u000a", "\\u001F", "\\/"}) {
        EXPECT_FALSE(read_metrics_json(
            metrics_text("", "\n    \"" + std::string(respelt) +
                                 "\": 1\n  "),
            error))
            << respelt;
    }
}

TEST(ReportJson, GoldenArtifactsRejectEveryMutation) {
    // A mutation reads only where it moved a member of an object keyed by
    // data: trace args, series names.
    std::string error;
    const std::string trace = *read_file(golden_path("engine_trace.json"));
    ASSERT_TRUE(read_chrome_trace(trace, error).has_value()) << error;
    EXPECT_EQ(test::accepted_mutations(trace, read_chrome_trace,
                                       {{"traceEvents", "args"}}, false),
              std::vector<std::string>{});

    const std::string timeline =
        *read_file(golden_path("fleet_timeline.json"));
    ASSERT_TRUE(read_timeline_json(timeline, error).has_value()) << error;
    // A cut reads as a torn tail, not as the document.
    const auto whole_timeline = [](std::string_view text, std::string& e) {
        auto read = read_timeline_json(text, e);
        return read && !read->truncated_tail ? read : std::nullopt;
    };
    EXPECT_EQ(
        test::accepted_mutations(timeline, whole_timeline, {{"series"}}, true),
        std::vector<std::string>{});
}

TEST(ReportJson, CorpusPlacesEachMemberInItsObject) {
    // accepted_mutations exempts a moved member by the object it lies in,
    // so an event's "name" is never mistaken for an arg called "name".
    std::set<std::vector<std::string>> dropped_name_in;
    for (const test::json_mutation& mutation : test::json_mutations(
             "{\"traceEvents\":[{\"name\":\"x\",\"args\":{\"name\":\"y\"}}]}"
             "\n")) {
        if (mutation.what == "dropped \"name\"") {
            dropped_name_in.insert(mutation.in);
        }
    }
    EXPECT_EQ(dropped_name_in, (std::set<std::vector<std::string>>{
                                   {"traceEvents"}, {"traceEvents", "args"}}));
}

// --- golden-trace round trip --------------------------------------------

TEST(ReportTrace, GoldenEngineTraceRoundTrips) {
    std::string error;
    auto artifact = load_trace_file(golden_path("engine_trace.json"), error);
    ASSERT_TRUE(artifact.has_value()) << error;
    auto model = build_trace_model(std::move(*artifact), error);
    ASSERT_TRUE(model.has_value()) << error;
    ASSERT_EQ(model->campaigns.size(), 1U);
    const campaign_node& campaign = model->campaigns.front();
    EXPECT_EQ(campaign.declared_tasks, 40U);
    EXPECT_EQ(campaign.tasks.size(), 40U);
    EXPECT_EQ(campaign.declared_faults, 13U);
    // Declared faults all surface as instants on task slots.
    std::uint64_t instants = 0;
    for (const task_node& task : campaign.tasks) {
        instants += task.instants.size();
    }
    EXPECT_EQ(instants, campaign.declared_faults);

    // Renders are pure functions of the model: two calls, same bytes.
    std::ostringstream first;
    std::ostringstream second;
    render_critical_path(first, *model);
    render_critical_path(second, *model);
    EXPECT_FALSE(first.str().empty());
    EXPECT_EQ(first.str(), second.str());
}

TEST(ReportTrace, GoldenCampaignTraceUtilization) {
    std::string error;
    auto artifact =
        load_trace_file(golden_path("undervolt_milc_trace.json"), error);
    ASSERT_TRUE(artifact.has_value()) << error;
    auto model = build_trace_model(std::move(*artifact), error);
    ASSERT_TRUE(model.has_value()) << error;
    const std::uint64_t serial = model->total_task_ticks();
    for (const int workers : {1, 2, 8}) {
        const utilization_report report =
            simulate_utilization(*model, workers);
        EXPECT_EQ(report.serial_ticks, serial);
        EXPECT_GE(report.makespan, serial / static_cast<std::uint64_t>(
                                                workers));
        EXPECT_LE(report.makespan, serial);
        EXPECT_LE(report.speedup(), static_cast<double>(workers));
        EXPECT_GE(report.imbalance(), 1.0);
    }
    // One worker is exactly serial execution.
    EXPECT_EQ(simulate_utilization(*model, 1).makespan, serial);
}

// --- utilization: the list-scheduling policy ----------------------------

// Synthetic trace model: `simulate_utilization` only reads the campaign ->
// task duration hierarchy, so a model built directly from durations stands
// in for a parsed artifact.
trace_model make_model(
    const std::vector<std::vector<std::uint64_t>>& campaigns) {
    trace_model model;
    for (const std::vector<std::uint64_t>& durations : campaigns) {
        campaign_node node;
        node.name = "synthetic";
        node.declared_tasks = durations.size();
        for (const std::uint64_t ticks : durations) {
            task_node task;
            task.index = node.tasks.size();
            task.ticks = ticks;
            node.tasks.push_back(task);
            node.task_ticks += ticks;
        }
        model.campaigns.push_back(std::move(node));
    }
    return model;
}

/// (busy ticks, tasks) per worker.
using load_list = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

load_list loads_of(const utilization_report& report) {
    load_list loads;
    for (const worker_load& load : report.loads) {
        loads.emplace_back(load.busy_ticks, load.tasks);
    }
    return loads;
}

TEST(ScheduleTest, IssuesInIndexOrderToEarliestFinishingWorker) {
    // t0 -> w0 [0,5), t1 -> w1 [0,3), t2 -> earliest finisher w1 [3,7),
    // t3 -> w0 [5,6).
    const utilization_report report =
        simulate_utilization(make_model({{5, 3, 4, 1}}), 2);
    EXPECT_EQ(loads_of(report), (load_list{{6, 2}, {7, 2}}));
    EXPECT_EQ(report.makespan, 7U);
    EXPECT_EQ(report.serial_ticks, 13U);
}

TEST(ScheduleTest, TiesGoToTheLowestWorkerId) {
    // All workers idle at 0: the first three tasks land on 0, 1, 2 in
    // order, and the equal-finish tie afterwards resolves to worker 0.
    const utilization_report report =
        simulate_utilization(make_model({{2, 2, 2, 1}}), 3);
    EXPECT_EQ(loads_of(report), (load_list{{3, 2}, {2, 1}, {2, 1}}));
    EXPECT_EQ(report.makespan, 3U);
}

TEST(ScheduleTest, WorkerCountClampsToAtLeastOne) {
    const utilization_report report =
        simulate_utilization(make_model({{7}}), 0);
    EXPECT_EQ(report.workers, 1);
    EXPECT_EQ(report.makespan, 7U);
    EXPECT_EQ(simulate_utilization(make_model({{7}}), -4).workers, 1);
}

TEST(ScheduleTest, BarrierAlignsEveryWorkerToTheMakespan) {
    // Both workers restart at the first campaign's makespan, 10: the next
    // campaign's task cannot begin before it fully drains, so it lands on
    // worker 0 at 10 rather than on worker 1 at 2.
    const utilization_report report =
        simulate_utilization(make_model({{10, 2}, {1}}), 2);
    EXPECT_EQ(loads_of(report), (load_list{{11, 2}, {2, 1}}));
    EXPECT_EQ(report.makespan, 11U);
}

TEST(ScheduleTest, OneShotScheduleAccountsEveryTask) {
    const utilization_report report =
        simulate_utilization(make_model({{4, 1, 1, 1, 1}}), 2);
    EXPECT_EQ(report.workers, 2);
    EXPECT_EQ(report.serial_ticks, 8U);
    EXPECT_EQ(report.makespan, 4U);
    EXPECT_EQ(loads_of(report), (load_list{{4, 1}, {4, 4}}));
}

TEST(SchedulePropertyTest, RandomSchedulesSatisfyTheInvariants) {
    rng seeds(2018);
    for (int trial = 0; trial < 50; ++trial) {
        const int workers = static_cast<int>(seeds.uniform_index(9)) + 1;
        std::vector<std::vector<std::uint64_t>> campaigns(
            seeds.uniform_index(4) + 1);
        std::uint64_t serial = 0;
        std::uint64_t tasks = 0;
        std::uint64_t longest = 0;
        for (std::vector<std::uint64_t>& durations : campaigns) {
            for (std::size_t i = seeds.uniform_index(40) + 1; i > 0; --i) {
                durations.push_back(seeds.uniform_index(500));
                serial += durations.back();
                longest = std::max(longest, durations.back());
                ++tasks;
            }
        }
        const trace_model model = make_model(campaigns);
        const utilization_report report =
            simulate_utilization(model, workers);
        // Pure function: same input, same schedule.
        EXPECT_EQ(loads_of(simulate_utilization(model, workers)),
                  loads_of(report));
        // Makespan bounds: no better than perfect division, no worse than
        // serial, never shorter than the longest single task.
        EXPECT_GE(report.makespan * static_cast<std::uint64_t>(workers),
                  serial);
        EXPECT_LE(report.makespan, serial);
        EXPECT_GE(report.makespan, longest);
        EXPECT_EQ(report.serial_ticks, serial);
        // Load accounting closes.
        ASSERT_EQ(report.loads.size(), static_cast<std::size_t>(workers));
        std::uint64_t busy = 0;
        std::uint64_t placed = 0;
        for (const worker_load& load : report.loads) {
            busy += load.busy_ticks;
            placed += load.tasks;
            EXPECT_LE(load.busy_ticks, report.makespan);
        }
        EXPECT_EQ(busy, serial);
        EXPECT_EQ(placed, tasks);
    }
}

TEST(ReportTrace, TruncatedTraceFailsWithDiagnostic) {
    std::string error;
    auto whole = gb::read_file(golden_path("engine_trace.json"));
    ASSERT_TRUE(whole.has_value());
    // Cut mid-document: must fail cleanly, never crash.
    const auto cut = whole->substr(0, whole->size() / 2);
    EXPECT_FALSE(read_chrome_trace(cut, error).has_value());
    EXPECT_EQ(error, json_mismatch("trace", cut.size()));
    // Valid JSON of the wrong shape is also a loader error.
    EXPECT_FALSE(read_chrome_trace("{}", error).has_value());
    EXPECT_EQ(error, "trace: byte 1: not what the trace writer renders");
}

// --- artifact loaders under hostile input -------------------------------

TEST(ReportArtifacts, MetricsLoaderRejectsCorruption) {
    std::string error;
    EXPECT_FALSE(read_metrics_json("{\"counters\": {", error).has_value());
    EXPECT_EQ(error, "metrics: byte 1: not what the metrics writer renders");
    // Negative counter: wrong shape even though it parses as JSON.
    EXPECT_FALSE(
        read_metrics_json(metrics_text("\n    \"a\": -1\n  ", ""), error)
            .has_value());
    EXPECT_EQ(error, "metrics: byte 27: not what the metrics writer renders");
}

TEST(ReportArtifacts, MetricsRoundTripKeepsExactCounters) {
    std::string error;
    const auto snapshot = read_metrics_json(
        metrics_text("\n    \"content.hash\": 4857721278376709091\n  ", ""),
        error);
    ASSERT_TRUE(snapshot.has_value()) << error;
    EXPECT_EQ(snapshot->counter_value("content.hash"),
              4857721278376709091ULL);
}

TEST(ReportArtifacts, JournalLoaderToleratesPartialCorruption) {
    const std::string good =
        "task=1 run=milc v=980 f=2400 cores=6 rep=1 outcome=OK "
        "margin=91.3 path=sram wdt=0\n";
    std::string error;
    // Pure corruption is an error...
    const std::string junk_path =
        temp_file("report_junk.log", "@@@garbage@@@\nnot a record\n");
    EXPECT_FALSE(load_journal_file(junk_path, error).has_value());
    EXPECT_FALSE(error.empty());
    // ...partial corruption just reports its skipped count.
    error.clear();
    const std::string mixed_path =
        temp_file("report_mixed.log", good + "corrupted line\n");
    const auto journal = load_journal_file(mixed_path, error);
    ASSERT_TRUE(journal.has_value()) << error;
    EXPECT_EQ(journal->records(), 1U);
    EXPECT_EQ(journal->skipped, 1U);
}

TEST(ReportArtifacts, JournalLoaderReportsAnInFlightTail) {
    // A journal being tailed mid-append ends without a trailing newline.
    // The partial line is not a record, not skipped corruption, and not
    // counted in `lines` -- it is surfaced via `truncated_tail` so the
    // reader knows to come back for the completed record.
    const std::string good =
        "task=1 run=milc v=980 f=2400 cores=6 rep=1 outcome=OK "
        "margin=91.3 path=sram wdt=0\n";
    const std::string tail =
        "task=2 run=milc v=970 f=2400 cores=6 rep=2 outcome=OK "
        "margin=81.3 path=sram wdt=0";
    std::string error;
    const std::string path = temp_file("report_tail.log", good + tail);
    const auto journal = load_journal_file(path, error);
    ASSERT_TRUE(journal.has_value()) << error;
    EXPECT_TRUE(journal->truncated_tail);
    EXPECT_EQ(journal->records(), 1U);
    EXPECT_EQ(journal->lines, 1U);
    EXPECT_EQ(journal->skipped, 0U);

    // Once the writer finishes the line, a re-read recovers the record.
    error.clear();
    const std::string done_path =
        temp_file("report_tail_done.log", good + tail + "\n");
    const auto done = load_journal_file(done_path, error);
    ASSERT_TRUE(done.has_value()) << error;
    EXPECT_FALSE(done->truncated_tail);
    EXPECT_EQ(done->records(), 2U);
    EXPECT_EQ(done->lines, 2U);
}

TEST(ReportArtifacts, JournalRejectsNonFiniteNumbers) {
    // Regression test for the logfile parse layer: inf/nan smuggled into a
    // numeric field must not become a record.
    const std::string path = temp_file(
        "report_inf.log",
        "task=1 run=milc v=980 f=2400 cores=6 rep=1 outcome=OK "
        "margin=91.3 path=sram wdt=0\n"
        "task=2 run=milc v=inf f=2400 cores=6 rep=2 outcome=OK "
        "margin=91.3 path=sram wdt=0\n"
        "task=3 run=milc v=980 f=2400 cores=6 rep=3 outcome=OK "
        "margin=nan path=sram wdt=0\n");
    std::string error;
    const auto journal = load_journal_file(path, error);
    ASSERT_TRUE(journal.has_value()) << error;
    EXPECT_EQ(journal->records(), 1U);
    EXPECT_EQ(journal->skipped, 2U);
}

TEST(ReportArtifacts, TraceArgsReadOnlyIntegersThatFit) {
    trace_event event;
    event.args = {{"tasks", "18446744073709551615"},
                  {"index", "18446744073709551616"},
                  {"bucket", "18446744073709551621"},
                  {"first_index", "12x"}};
    EXPECT_EQ(event.arg_u64("tasks"), 18446744073709551615ULL);
    EXPECT_FALSE(event.arg_u64("index").has_value());
    EXPECT_FALSE(event.arg_u64("bucket").has_value());
    EXPECT_FALSE(event.arg_u64("first_index").has_value());
    EXPECT_FALSE(event.arg_u64("absent").has_value());
}

/// A finished heartbeat as write_status_json renders it.
campaign_status finished_heartbeat() {
    campaign_status status;
    status.campaign = "milc";
    status.tasks_total = 150;
    status.tasks_done = 150;
    status.retries = 3;
    status.injected_faults = 3;
    status.rig_downtime_ms = 110000;
    return status;
}

/// A fleet snapshot with no observatory, as the service writes it.
campaign_status fleet_heartbeat() {
    campaign_status status;
    status.campaign = "fleet";
    status.tasks_total = 36;
    status.tasks_done = 36;
    fleet_status& fleet = status.fleet.emplace();
    fleet.epoch = 1;
    fleet.nodes = 10000;
    fleet.cohorts = 36;
    fleet.degraded.cohorts = 2;
    fleet.degraded.nodes = 500;
    fleet.degraded.quarantined = {{"TTT", 0, 0, 0, 250},
                                  {"TSS", 0, 0, 0, 250}};
    return status;
}

TEST(ReportArtifacts, StatusLoaderRequiresCounters) {
    std::string error;
    const std::string partial =
        temp_file("status_partial.json", "{\"campaign\": \"x\"}");
    EXPECT_FALSE(load_status_file(partial, error).has_value());
    EXPECT_EQ(error, partial + ": status: byte 12: not what the status "
                               "writer renders");
    error.clear();
    const auto status = load_status_file(
        temp_file("status_final.json",
                  write_status_json(finished_heartbeat())),
        error);
    ASSERT_TRUE(status.has_value()) << error;
    EXPECT_EQ(status->tasks_done, 150U);
    EXPECT_EQ(status->rig_downtime_ms, 110000U);
    EXPECT_FALSE(status->running);
}

TEST(ReportStatus, OldSchemaSnapshotsRenderATimelinePlaceholder) {
    // Plain heartbeats and fleet snapshots written with the observatory
    // off carry no timeline section, so renderers show a stable
    // placeholder instead of omitting it.
    std::string error;
    const auto plain =
        read_status_json(write_status_json(finished_heartbeat()), error);
    ASSERT_TRUE(plain.has_value()) << error;
    EXPECT_FALSE(plain->fleet.has_value());

    const auto old_fleet =
        read_status_json(write_status_json(fleet_heartbeat()), error);
    ASSERT_TRUE(old_fleet.has_value()) << error;
    ASSERT_TRUE(old_fleet->fleet.has_value());
    EXPECT_FALSE(old_fleet->fleet->timeline.has_value());
    EXPECT_EQ(old_fleet->fleet->degraded.cohorts, 2U);
}

TEST(ReportStatus, ParsesTheFleetTimelineSection) {
    campaign_status observed = fleet_heartbeat();
    observed.fleet->timeline =
        status_timeline{40, 240, 2, {"vmin-drift:vmin.TTT.0.0.0"}, 3};
    const std::string snapshot = write_status_json(observed);
    std::string error;
    const auto status = read_status_json(snapshot, error);
    ASSERT_TRUE(status.has_value()) << error;
    ASSERT_TRUE(status->fleet && status->fleet->timeline);
    const status_timeline& timeline = *status->fleet->timeline;
    EXPECT_EQ(timeline.series, 40U);
    EXPECT_EQ(timeline.samples, 240U);
    EXPECT_EQ(timeline.rules, 2U);
    EXPECT_EQ(timeline.events, 3U);
    ASSERT_EQ(timeline.firing.size(), 1U);
    EXPECT_EQ(timeline.firing.front(), "vmin-drift:vmin.TTT.0.0.0");

    // A malformed section is a diagnostic, not a crash.
    const std::size_t section = snapshot.find("\"timeline\":") + 11;
    std::string malformed = snapshot;
    malformed.replace(section, snapshot.size() - 3 - section, "42");
    error.clear();
    EXPECT_FALSE(read_status_json(malformed, error).has_value());
    EXPECT_EQ(error, "status: byte " + std::to_string(section) +
                         ": not what the status writer renders");
}

// --- timeline artifact --------------------------------------------------

/// A small but non-trivial timeline: two series, one past ring eviction,
/// plus a firing alert -- written through the real emitter.
std::string sample_timeline_json() {
    timeseries_config config;
    config.capacity = 4;
    timeline_recorder recorder(config);
    for (std::uint64_t i = 1; i <= 6; ++i) {
        recorder.append("vmin.TTT.0.0.0", recorder.advance(),
                        950.0 + 2.5 * static_cast<double>(i));
    }
    recorder.append("fleet.cache_hit_rate", recorder.advance(), 0.5);
    alert_rule rule;
    rule.name = "vmin-drift";
    rule.series = "vmin.*";
    rule.op = alert_rule::op_kind::slope;
    rule.threshold = 1.0;
    rule.window = 3;
    alert_engine alerts({rule});
    (void)alerts.evaluate(recorder.snapshot(), recorder.next_tick());
    return write_timeline_json(recorder, &alerts);
}

TEST(ReportTimeline, RoundTripsTheEmitterBytes) {
    const std::string text = sample_timeline_json();
    std::string error;
    const auto timeline = read_timeline_json(text, error);
    ASSERT_TRUE(timeline.has_value()) << error;
    EXPECT_FALSE(timeline->truncated_tail);
    ASSERT_EQ(timeline->series.size(), 2U);
    // Writer order is name-sorted.
    EXPECT_EQ(timeline->series[0].name, "fleet.cache_hit_rate");
    EXPECT_EQ(timeline->series[1].name, "vmin.TTT.0.0.0");
    const series_snapshot* vmin = timeline->find("vmin.TTT.0.0.0");
    ASSERT_NE(vmin, nullptr);
    EXPECT_EQ(vmin->count, 6U);
    EXPECT_EQ(vmin->samples.size(), 4U); // ring capacity
    EXPECT_DOUBLE_EQ(vmin->min, 952.5);
    EXPECT_DOUBLE_EQ(vmin->max, 965.0);
    EXPECT_DOUBLE_EQ(vmin->last, 965.0);
    EXPECT_EQ(vmin->evicted.count, 2U); // two samples downsampled
    EXPECT_EQ(timeline->alert_rules, 1U);
    ASSERT_EQ(timeline->firing.size(), 1U);
    EXPECT_EQ(timeline->firing.front(), "vmin-drift:vmin.TTT.0.0.0");
    ASSERT_EQ(timeline->events.size(), 1U);
    EXPECT_TRUE(timeline->events.front().firing);
    EXPECT_EQ(timeline->events.front().rule, "vmin-drift");
    EXPECT_EQ(timeline->find("no.such.series"), nullptr);
}

TEST(ReportTimeline, SalvagesATornTail) {
    // A crashed writer leaves a strict byte prefix.  Every cut that still
    // contains at least one complete series must load with
    // `truncated_tail` set; cuts before that must fail with the
    // truncated-tail diagnostic, not a JSON error.  Both the sample and a
    // fleet daemon's golden timeline, cut at every byte.
    for (const std::string& text :
         {sample_timeline_json(),
          *read_file(golden_path("fleet_timeline.json"))}) {
        std::string error;
        const auto whole = read_timeline_json(text, error);
        ASSERT_TRUE(whole.has_value()) << error;

        bool salvaged_some = false;
        for (std::size_t cut = 1; cut < text.size(); ++cut) {
            error.clear();
            const auto torn = read_timeline_json(
                std::string_view(text).substr(0, cut), error);
            if (!torn) {
                // Before the first record boundary there is nothing to
                // salvage: the diagnostic names the truncation, never a
                // generic shape error.
                EXPECT_NE(error.find("truncated tail"), std::string::npos)
                    << "cut at " << cut << ": " << error;
                continue;
            }
            // Even a cut of the last newline alone is torn, and a torn
            // read carries no alert section: alert verdicts refuse it.
            EXPECT_TRUE(torn->truncated_tail) << "cut at " << cut;
            EXPECT_EQ(torn->alert_rules, 0U) << "cut at " << cut;
            EXPECT_TRUE(torn->firing.empty()) << "cut at " << cut;
            EXPECT_TRUE(torn->events.empty()) << "cut at " << cut;
            EXPECT_LE(torn->series.size(), whole->series.size());
            // Salvaged series are bit-exact prefixes of the full document.
            for (const series_snapshot& series : torn->series) {
                const series_snapshot* full = whole->find(series.name);
                ASSERT_NE(full, nullptr);
                EXPECT_EQ(series.count, full->count);
                EXPECT_EQ(series.samples.size(), full->samples.size());
            }
            salvaged_some = true;
        }
        EXPECT_TRUE(salvaged_some);
    }
}

TEST(ReportTimeline, RejectsCorruption) {
    std::string error;
    EXPECT_FALSE(read_timeline_json("", error).has_value());
    EXPECT_FALSE(error.empty());
    error.clear();
    EXPECT_FALSE(read_timeline_json("{}", error).has_value());
    EXPECT_EQ(error, "timeline: byte 1: not what the timeline writer renders");
    error.clear();
    // Valid JSON, wrong sample shape.
    EXPECT_FALSE(
        read_timeline_json("{\"series\":{\"a\":{\"count\":1,\"min\":0,"
                      "\"max\":0,\"last\":0,\"samples\":[[1]],"
                      "\"evicted\":{\"bounds\":[],\"counts\":[0],"
                      "\"count\":0,\"sum\":0}}}}",
                      error)
            .has_value());
    EXPECT_FALSE(error.empty());
    error.clear();
    // Mid-document garbage is corruption, not a torn tail.
    EXPECT_FALSE(read_timeline_json("{\"series\": @@garbage@@\n}", error)
                     .has_value());
    EXPECT_EQ(error.find("truncated tail"), std::string::npos);
}

TEST(ReportTimeline, LoadsTheFileForm) {
    const std::string path =
        temp_file("report_timeline.json", sample_timeline_json());
    std::string error;
    const auto timeline = load_timeline_file(path, error);
    ASSERT_TRUE(timeline.has_value()) << error;
    EXPECT_EQ(timeline->series.size(), 2U);
    EXPECT_EQ(timeline->samples(), 5U); // 4 retained + 1
    error.clear();
    EXPECT_FALSE(
        load_timeline_file(path + ".does_not_exist", error).has_value());
    EXPECT_FALSE(error.empty());
}

// --- metrics diff -------------------------------------------------------

metrics_snapshot snapshot_with(std::uint64_t counter, double gauge) {
    metrics_snapshot snapshot;
    snapshot.counters.emplace_back("runs.total", counter);
    snapshot.gauges.emplace_back("wall.run_ms", gauge);
    return snapshot;
}

TEST(ReportDiff, IdenticalSnapshotsPass) {
    const auto base = snapshot_with(100, 5.0);
    const diff_report report = diff_metrics(base, base, {});
    EXPECT_FALSE(report.failed());
    EXPECT_EQ(report.regressions, 0U);
    for (const diff_entry& entry : report.entries) {
        EXPECT_EQ(entry.status, diff_status::ok);
    }
}

TEST(ReportDiff, ZeroBaselineAdmitsOnlyZero) {
    metrics_snapshot base;
    base.counters.emplace_back("faults", 0);
    metrics_snapshot same = base;
    EXPECT_FALSE(diff_metrics(base, same, {}).failed());

    metrics_snapshot drifted;
    drifted.counters.emplace_back("faults", 1);
    diff_options generous;
    generous.default_tolerance = 100.0;
    const diff_report report = diff_metrics(base, drifted, generous);
    EXPECT_TRUE(report.failed());
    ASSERT_EQ(report.entries.size(), 1U);
    EXPECT_TRUE(std::isinf(report.entries.front().relative));
}

TEST(ReportDiff, MissingMetricFailsEvenWithTolerance) {
    const auto base = snapshot_with(100, 5.0);
    metrics_snapshot candidate;
    candidate.counters.emplace_back("runs.total", 100);
    diff_options generous;
    generous.default_tolerance = 100.0;
    const diff_report report = diff_metrics(base, candidate, generous);
    EXPECT_TRUE(report.failed());
    EXPECT_EQ(report.missing, 1U);
}

TEST(ReportDiff, AddedMetricIsNotAFailure) {
    metrics_snapshot base;
    base.counters.emplace_back("runs.total", 100);
    const auto candidate = snapshot_with(100, 5.0);
    const diff_report report = diff_metrics(base, candidate, {});
    EXPECT_FALSE(report.failed());
    EXPECT_EQ(report.added, 1U);
}

TEST(ReportDiff, ExactlyAtThresholdPasses) {
    // rel == tolerance is within tolerance; one ulp above is not.
    metrics_snapshot base;
    base.gauges.emplace_back("wall.run_ms", 100.0);
    metrics_snapshot at;
    at.gauges.emplace_back("wall.run_ms", 110.0);
    metrics_snapshot above;
    above.gauges.emplace_back("wall.run_ms", 110.1);
    diff_options tolerant;
    tolerant.overrides.emplace_back("wall.run_ms", 0.1);
    EXPECT_FALSE(diff_metrics(base, at, tolerant).failed());
    EXPECT_TRUE(diff_metrics(base, above, tolerant).failed());
}

TEST(ReportDiff, IntegerCountersCompareExactly) {
    // A one-bit change far above 2^53 must register (a double compare
    // would merge the two values).
    metrics_snapshot base;
    base.counters.emplace_back("content.hash", 4857721278376709091ULL);
    metrics_snapshot drifted;
    drifted.counters.emplace_back("content.hash", 4857721278376709092ULL);
    const diff_report report = diff_metrics(base, drifted, {});
    EXPECT_TRUE(report.failed());
    ASSERT_EQ(report.entries.size(), 1U);
    EXPECT_EQ(report.entries.front().baseline_text, "4857721278376709091");
    EXPECT_EQ(report.entries.front().candidate_text, "4857721278376709092");
    EXPECT_FALSE(diff_metrics(base, base, {}).failed());
}

TEST(ReportDiff, TolerancePrecedence) {
    diff_options options;
    options.default_tolerance = 0.01;
    options.overrides.emplace_back("wall.*", 0.5);
    options.overrides.emplace_back("wall.run_ms", 0.2);
    options.overrides.emplace_back("*", 0.05);
    EXPECT_DOUBLE_EQ(tolerance_for(options, "wall.run_ms"), 0.2); // exact
    EXPECT_DOUBLE_EQ(tolerance_for(options, "wall.setup_ms"), 0.5); // prefix
    EXPECT_DOUBLE_EQ(tolerance_for(options, "runs.total"), 0.05); // star
    diff_options bare;
    bare.default_tolerance = 0.01;
    EXPECT_DOUBLE_EQ(tolerance_for(bare, "anything"), 0.01); // default
}

TEST(ReportDiff, HistogramsCompareCountAndSum) {
    histogram_snapshot h;
    h.bounds = {10, 100};
    h.counts = {1, 2, 0};
    h.count = 3;
    h.sum = 120;
    metrics_snapshot base;
    base.histograms.emplace_back("engine.task_ticks", h);
    metrics_snapshot drifted = base;
    drifted.histograms.front().second.sum = 130;
    const diff_report report = diff_metrics(base, drifted, {});
    EXPECT_TRUE(report.failed());
    EXPECT_FALSE(diff_metrics(base, base, {}).failed());
}

} // namespace
} // namespace gb::report
