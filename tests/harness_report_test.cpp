// Consume-side tests for the observability stack: the hardened JSON
// parser (exact 64-bit integers, hostile input), the artifact loaders,
// the trace-model round-trip over the checked-in golden traces, and the
// metrics-diff edge cases the CI perf gate depends on (zero baselines,
// missing metrics, exactly-at-threshold changes, tolerance precedence).
#include "harness/report/analysis.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "harness/report/artifacts.hpp"
#include "harness/report/json.hpp"
#include "harness/timeseries/alerts.hpp"
#include "harness/timeseries/timeseries.hpp"
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

// --- JSON parser --------------------------------------------------------

TEST(ReportJson, PreservesExact64BitIntegers) {
    // Above 2^53 a double silently rounds; counters (content hashes) need
    // every bit.
    const auto parsed = parse_json("4857721278376709091");
    ASSERT_TRUE(parsed.value.has_value()) << parsed.error;
    ASSERT_TRUE(parsed.value->as_u64().has_value());
    EXPECT_EQ(*parsed.value->as_u64(), 4857721278376709091ULL);

    const auto max64 = parse_json("18446744073709551615");
    ASSERT_TRUE(max64.value.has_value());
    EXPECT_EQ(*max64.value->as_u64(), 18446744073709551615ULL);

    const auto above = parse_json("1.8446744073709552e19");
    ASSERT_TRUE(above.value.has_value());
    // Scientific notation is not an exact-integer token, but the double
    // fallback still accepts in-range integral values.
    EXPECT_TRUE(above.value->as_u64().has_value());
}

TEST(ReportJson, SignedIntegerBounds) {
    EXPECT_EQ(*parse_json("-5").value->as_i64(), -5);
    EXPECT_EQ(*parse_json("9223372036854775807").value->as_i64(),
              std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(*parse_json("-9223372036854775808").value->as_i64(),
              std::numeric_limits<std::int64_t>::min());
    // One past either end is representable as u64 / rejected cleanly.
    EXPECT_FALSE(parse_json("9223372036854775808").value->as_i64());
    EXPECT_FALSE(parse_json("-9223372036854775809").value->as_i64());
    EXPECT_FALSE(parse_json("-1").value->as_u64());
    EXPECT_EQ(*parse_json("-0").value->as_u64(), 0ULL);
}

TEST(ReportJson, NonIntegralNumbers) {
    EXPECT_FALSE(parse_json("1.5").value->as_u64());
    EXPECT_EQ(*parse_json("1e3").value->as_u64(), 1000ULL);
    EXPECT_DOUBLE_EQ(*parse_json("1.5").value->as_number(), 1.5);
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
        const auto parsed = parse_json(input);
        EXPECT_FALSE(parsed.value.has_value()) << "accepted: " << input;
        EXPECT_FALSE(parsed.error.empty());
        EXPECT_NE(parsed.error.find("byte "), std::string::npos)
            << parsed.error;
    }
}

TEST(ReportJson, RejectsPathologicalNesting) {
    std::string deep;
    for (int i = 0; i < 100; ++i) {
        deep += '[';
    }
    const auto parsed = parse_json(deep);
    ASSERT_FALSE(parsed.value.has_value());
    EXPECT_NE(parsed.error.find("nesting"), std::string::npos);
}

TEST(ReportJson, DecodesEscapesAndSurrogatePairs) {
    const auto parsed = parse_json("\"a\\n\\u0041\\ud83d\\ude00\"");
    ASSERT_TRUE(parsed.value.has_value()) << parsed.error;
    EXPECT_EQ(*parsed.value->as_string(), "a\nA\xf0\x9f\x98\x80");

    // Every ASCII byte survives the emitters' escaper and this parser.
    std::string ascii;
    for (int byte = 0; byte < 0x80; ++byte) {
        ascii += static_cast<char>(byte);
    }
    const auto round_trip = parse_json('"' + json_escape(ascii) + '"');
    ASSERT_TRUE(round_trip.value.has_value()) << round_trip.error;
    EXPECT_EQ(*round_trip.value->as_string(), ascii);
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

TEST(ReportTrace, TruncatedTraceFailsWithDiagnostic) {
    std::string error;
    auto whole = read_file(golden_path("engine_trace.json"), error);
    ASSERT_TRUE(whole.has_value()) << error;
    // Cut mid-document: must fail cleanly, never crash.
    const auto cut = whole->substr(0, whole->size() / 2);
    EXPECT_FALSE(load_trace(cut, error).has_value());
    EXPECT_FALSE(error.empty());
    // Valid JSON of the wrong shape is also a loader error.
    error.clear();
    EXPECT_FALSE(load_trace("{}", error).has_value());
    EXPECT_FALSE(error.empty());
}

// --- artifact loaders under hostile input -------------------------------

TEST(ReportArtifacts, MetricsLoaderRejectsCorruption) {
    std::string error;
    EXPECT_FALSE(load_metrics("{\"counters\": {", error).has_value());
    EXPECT_FALSE(error.empty());
    error.clear();
    // Negative counter: wrong shape even though it parses as JSON.
    EXPECT_FALSE(
        load_metrics("{\"counters\": {\"a\": -1}, \"gauges\": {}, "
                     "\"histograms\": {}}",
                     error)
            .has_value());
    EXPECT_FALSE(error.empty());
}

TEST(ReportArtifacts, MetricsRoundTripKeepsExactCounters) {
    std::string error;
    const auto snapshot = load_metrics(
        "{\"counters\": {\"content.hash\": 4857721278376709091}, "
        "\"gauges\": {}, \"histograms\": {}}",
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

TEST(ReportArtifacts, StatusLoaderRequiresCounters) {
    std::string error;
    EXPECT_FALSE(load_status("{\"campaign\": \"x\"}", error).has_value());
    EXPECT_FALSE(error.empty());
    error.clear();
    const auto status = load_status(
        "{\"campaign\":\"milc\",\"running\":false,\"tasks_total\":150,"
        "\"tasks_done\":150,\"retries\":3,\"injected_faults\":3,"
        "\"aborted_rig\":0,\"replayed\":0,\"rig_downtime_ms\":110000}",
        error);
    ASSERT_TRUE(status.has_value()) << error;
    EXPECT_EQ(status->tasks_done, 150U);
    EXPECT_FALSE(status->running);
}

TEST(ReportStatus, OldSchemaSnapshotsRenderATimelinePlaceholder) {
    // Snapshots written before the observatory existed -- plain
    // heartbeats and fleet snapshots alike -- must keep loading, with
    // `timeline_present` false so renderers show a stable placeholder
    // instead of omitting the section.
    std::string error;
    const auto plain = load_status(
        "{\"campaign\":\"milc\",\"running\":false,\"tasks_total\":150,"
        "\"tasks_done\":150,\"retries\":0,\"injected_faults\":0,"
        "\"aborted_rig\":0,\"replayed\":0,\"rig_downtime_ms\":0}",
        error);
    ASSERT_TRUE(plain.has_value()) << error;
    EXPECT_FALSE(plain->timeline_present);
    EXPECT_EQ(plain->timeline_series, 0U);

    const auto old_fleet = load_status(
        "{\"campaign\":\"fleet\",\"running\":false,\"tasks_total\":36,"
        "\"tasks_done\":36,\"retries\":0,\"injected_faults\":0,"
        "\"aborted_rig\":0,\"replayed\":0,\"rig_downtime_ms\":0,"
        "\"fleet\":{\"degraded\":{\"cohorts\":2,\"nodes\":500}}}",
        error);
    ASSERT_TRUE(old_fleet.has_value()) << error;
    EXPECT_FALSE(old_fleet->timeline_present);
    EXPECT_EQ(old_fleet->degraded_cohorts, 2U);
}

TEST(ReportStatus, ParsesTheFleetTimelineSection) {
    std::string error;
    const auto status = load_status(
        "{\"campaign\":\"fleet\",\"running\":false,\"tasks_total\":36,"
        "\"tasks_done\":36,\"retries\":0,\"injected_faults\":0,"
        "\"aborted_rig\":0,\"replayed\":0,\"rig_downtime_ms\":0,"
        "\"fleet\":{\"degraded\":{\"cohorts\":0,\"nodes\":0},"
        "\"timeline\":{\"series\":40,\"samples\":240,\"rules\":2,"
        "\"firing\":[\"vmin-drift:vmin.TTT.0.0.0\"],\"events\":3}}}",
        error);
    ASSERT_TRUE(status.has_value()) << error;
    EXPECT_TRUE(status->timeline_present);
    EXPECT_EQ(status->timeline_series, 40U);
    EXPECT_EQ(status->timeline_samples, 240U);
    EXPECT_EQ(status->timeline_rules, 2U);
    EXPECT_EQ(status->timeline_events, 3U);
    ASSERT_EQ(status->timeline_firing.size(), 1U);
    EXPECT_EQ(status->timeline_firing.front(),
              "vmin-drift:vmin.TTT.0.0.0");

    // A malformed section is a diagnostic, not a crash.
    error.clear();
    EXPECT_FALSE(load_status(
                     "{\"campaign\":\"fleet\",\"running\":false,"
                     "\"tasks_total\":1,\"tasks_done\":1,\"retries\":0,"
                     "\"injected_faults\":0,\"aborted_rig\":0,"
                     "\"replayed\":0,\"rig_downtime_ms\":0,"
                     "\"fleet\":{\"timeline\":42}}",
                     error)
                     .has_value());
    EXPECT_FALSE(error.empty());
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
    std::ostringstream out;
    write_timeline_json(out, recorder, &alerts);
    return out.str();
}

TEST(ReportTimeline, RoundTripsTheEmitterBytes) {
    const std::string text = sample_timeline_json();
    std::string error;
    const auto timeline = load_timeline(text, error);
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
    // contains at least one complete series line must load with
    // `truncated_tail` set; cuts before that must fail with the
    // truncated-tail diagnostic, not a JSON error.
    const std::string text = sample_timeline_json();
    std::string error;
    const auto whole = load_timeline(text, error);
    ASSERT_TRUE(whole.has_value()) << error;

    bool salvaged_some = false;
    for (std::size_t cut = 1; cut < text.size(); ++cut) {
        error.clear();
        const auto torn = load_timeline(text.substr(0, cut), error);
        if (!torn) {
            // Before the first record boundary there is nothing to
            // salvage: the diagnostic names the truncation, never a
            // generic shape error.
            EXPECT_NE(error.find("truncated tail"), std::string::npos)
                << "cut at " << cut << ": " << error;
            continue;
        }
        if (cut < text.size() - 1) {
            EXPECT_TRUE(torn->truncated_tail) << "cut at " << cut;
        }
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

TEST(ReportTimeline, RejectsCorruption) {
    std::string error;
    EXPECT_FALSE(load_timeline("", error).has_value());
    EXPECT_FALSE(error.empty());
    error.clear();
    EXPECT_FALSE(load_timeline("{}", error).has_value());
    EXPECT_NE(error.find("series"), std::string::npos);
    error.clear();
    // Valid JSON, wrong sample shape.
    EXPECT_FALSE(
        load_timeline("{\"series\":{\"a\":{\"count\":1,\"min\":0,"
                      "\"max\":0,\"last\":0,\"samples\":[[1]],"
                      "\"evicted\":{\"bounds\":[],\"counts\":[0],"
                      "\"count\":0,\"sum\":0}}}}",
                      error)
            .has_value());
    EXPECT_FALSE(error.empty());
    error.clear();
    // Mid-document garbage is corruption, not a torn tail.
    EXPECT_FALSE(load_timeline("{\"series\": @@garbage@@\n}", error)
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
