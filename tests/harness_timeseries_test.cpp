// Time-series + alert engine unit tests: the observatory tentpole's
// ground layer.  The recorder's ring, eviction histogram and virtual
// clock are exact; replaying any prefix of appends reproduces the same
// state (the property the fleet journal warm path relies on); alert
// rules parse with path:line diagnostics, evaluate deterministically,
// and transition exactly once per state change; the Prometheus writer
// renders a snapshot's worth of deterministic exposition text.
#include "harness/timeseries/timeseries.hpp"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/timeseries/alerts.hpp"
#include "harness/trace/metrics.hpp"

namespace gb {
namespace {

// --- recorder -----------------------------------------------------------

TEST(TimeseriesTest, AppendTracksSummaryAndRing) {
    timeline_recorder recorder;
    recorder.append("vmin", recorder.advance(), 900.0);
    recorder.append("vmin", recorder.advance(), 910.0);
    recorder.append("vmin", recorder.advance(), 905.0);
    recorder.append("rate", recorder.advance(), 0.5);

    const auto series = recorder.snapshot();
    ASSERT_EQ(series.size(), 2U);
    // Name-sorted: "rate" before "vmin".
    EXPECT_EQ(series[0].name, "rate");
    EXPECT_EQ(series[1].name, "vmin");
    const series_snapshot& vmin = series[1];
    EXPECT_EQ(vmin.count, 3U);
    EXPECT_DOUBLE_EQ(vmin.min, 900.0);
    EXPECT_DOUBLE_EQ(vmin.max, 910.0);
    EXPECT_DOUBLE_EQ(vmin.last, 905.0);
    ASSERT_EQ(vmin.samples.size(), 3U);
    EXPECT_EQ(vmin.samples[0].tick, 1U);
    EXPECT_EQ(vmin.samples[2].tick, 3U);
    EXPECT_EQ(recorder.sample_count(), 4U);
}

TEST(TimeseriesTest, RingEvictsIntoTheHistogramExactly) {
    timeseries_config config;
    config.capacity = 4;
    timeline_recorder recorder(config);
    for (int i = 0; i < 10; ++i) {
        recorder.append("s", recorder.advance(), static_cast<double>(i));
    }
    const auto series = recorder.snapshot();
    ASSERT_EQ(series.size(), 1U);
    const series_snapshot& s = series[0];
    EXPECT_EQ(s.count, 10U);
    ASSERT_EQ(s.samples.size(), 4U); // ring keeps the newest 4
    EXPECT_DOUBLE_EQ(s.samples.front().value, 6.0);
    EXPECT_DOUBLE_EQ(s.samples.back().value, 9.0);
    // Values 0..5 evicted; milli-unit sum = 1000 * (0+1+2+3+4+5).
    EXPECT_EQ(s.evicted.count, 6U);
    EXPECT_EQ(s.evicted.sum, 15000U);
    EXPECT_EQ(s.evicted.counts.size(), s.evicted.bounds.size() + 1);
    std::uint64_t bucketed = 0;
    for (const std::uint64_t c : s.evicted.counts) {
        bucketed += c;
    }
    EXPECT_EQ(bucketed, 6U);
}

TEST(TimeseriesTest, ReplayingAPrefixReproducesTheState) {
    // The warm-restart property: a second recorder fed the same appends
    // renders byte-identical timeline JSON.
    timeseries_config config;
    config.capacity = 3;
    timeline_recorder a(config);
    timeline_recorder b(config);
    const double values[] = {9.0, 1.5, -2.0, 7.25, 3.0, 8.0};
    for (const double v : values) {
        a.append("x", a.advance(), v);
    }
    for (std::size_t i = 0; i < std::size(values); ++i) {
        b.append("x", static_cast<std::uint64_t>(i + 1), values[i]);
    }
    EXPECT_EQ(write_timeline_json(a), write_timeline_json(b));
    // The replayed clock caught up: the next tick continues the sequence.
    EXPECT_EQ(b.next_tick(), a.next_tick());
}

TEST(TimeseriesTest, ObserveTickKeepsTheClockAhead) {
    timeline_recorder recorder;
    recorder.observe_tick(41);
    EXPECT_EQ(recorder.advance(), 42U);
    recorder.observe_tick(10); // never moves backwards
    EXPECT_EQ(recorder.advance(), 43U);
}

TEST(TimeseriesTest, TimelineJsonShape) {
    timeline_recorder recorder;
    recorder.append("a.b", recorder.advance(), 1.5);
    const std::string text = write_timeline_json(recorder);
    EXPECT_NE(text.find("\"series\": {"), std::string::npos);
    EXPECT_NE(text.find("\"a.b\": {\"count\": 1"), std::string::npos);
    EXPECT_NE(text.find("\"samples\": [[1,1.5]]"), std::string::npos);
    EXPECT_NE(text.find("\"alerts\": {\"rules\": 0, \"firing\": [], "
                        "\"events\": []}"),
              std::string::npos);
    EXPECT_EQ(text.back(), '\n');
}

// --- alert rule parsing -------------------------------------------------

TEST(AlertRulesTest, ParsesEveryComparator) {
    std::string error;
    const auto rules = parse_alert_rules(
        "# drift watchlist\n"
        "alert hot vmin.* above 960\n"
        "alert cold fleet.cache_hit_rate below 0.25\n"
        "alert jump health.breaker_trips delta 3 window 4\n"
        "alert drift vmin.TTT.c0.p0.v0 slope 0.5 window 8\n"
        "\n",
        "rules.txt", error);
    ASSERT_TRUE(rules.has_value()) << error;
    ASSERT_EQ(rules->size(), 4U);
    EXPECT_EQ((*rules)[0].op, alert_rule::op_kind::above);
    EXPECT_EQ((*rules)[1].op, alert_rule::op_kind::below);
    EXPECT_EQ((*rules)[2].op, alert_rule::op_kind::delta);
    EXPECT_EQ((*rules)[2].window, 4U);
    EXPECT_EQ((*rules)[3].op, alert_rule::op_kind::slope);
    EXPECT_DOUBLE_EQ((*rules)[3].threshold, 0.5);
}

TEST(AlertRulesTest, TabSeparatedRuleParsesLikeSpaces) {
    // Rule files are hand-written: tabs separate tokens like spaces do.
    std::string error;
    const auto spaced = parse_alert_rules(
        "alert drift vmin.TTT.c0.p0.v0 slope 0.5 window 8\n", "rules.txt",
        error);
    ASSERT_TRUE(spaced.has_value()) << error;
    const auto tabbed = parse_alert_rules(
        "alert\tdrift \tvmin.TTT.c0.p0.v0\tslope\t\t0.5 window\t8\n",
        "rules.txt", error);
    ASSERT_TRUE(tabbed.has_value()) << error;
    ASSERT_EQ(spaced->size(), 1U);
    ASSERT_EQ(tabbed->size(), 1U);
    const alert_rule& a = spaced->front();
    const alert_rule& b = tabbed->front();
    EXPECT_EQ(b.name, a.name);
    EXPECT_EQ(b.series, a.series);
    EXPECT_EQ(b.op, a.op);
    EXPECT_EQ(b.threshold, a.threshold);
    EXPECT_EQ(b.window, a.window);
}

TEST(AlertRulesTest, ParseErrorsCarryPathAndLine) {
    const struct {
        const char* spec;
        const char* needle;
    } cases[] = {
        {"watch x above 5", "expected 'alert'"},
        {"alert n s sideways 5", "unknown comparator 'sideways'"},
        {"alert n s above five", "'five' is not a number"},
        {"alert n s above nan", "'nan' is not a number"},
        {"alert n s delta 5", "wants 'window <N>'"},
        {"alert n s slope 5 window 1", "integer >= 2"},
        {"alert n s above 5 extra", "trailing tokens"},
        {"alert n\n", "alert wants"},
    };
    for (const auto& c : cases) {
        std::string error;
        const auto rules =
            parse_alert_rules(std::string("# ok\n") + c.spec, "spec.alerts",
                              error);
        EXPECT_FALSE(rules.has_value()) << c.spec;
        EXPECT_NE(error.find("spec.alerts:2: "), std::string::npos)
            << error;
        EXPECT_NE(error.find(c.needle), std::string::npos) << error;
    }
}

TEST(AlertRulesTest, WildcardMatchesPrefixes) {
    alert_rule rule;
    rule.series = "vmin.*";
    EXPECT_TRUE(rule.matches("vmin.TTT.c0.p0.v0"));
    EXPECT_TRUE(rule.matches("vmin."));
    EXPECT_FALSE(rule.matches("vmax.TTT"));
    rule.series = "exact";
    EXPECT_TRUE(rule.matches("exact"));
    EXPECT_FALSE(rule.matches("exactly"));
}

// --- alert evaluation ---------------------------------------------------

std::vector<series_snapshot> one_series(const std::string& name,
                                        std::vector<double> values) {
    timeline_recorder recorder;
    for (const double v : values) {
        recorder.append(name, recorder.advance(), v);
    }
    return recorder.snapshot();
}

alert_rule make_rule(const std::string& name, const std::string& series,
                     alert_rule::op_kind op, double threshold,
                     std::size_t window = 0) {
    alert_rule rule;
    rule.name = name;
    rule.series = series;
    rule.op = op;
    rule.threshold = threshold;
    rule.window = window;
    return rule;
}

TEST(AlertEngineTest, ThresholdRulesCompareTheLatestSample) {
    const std::vector<alert_rule> rules = {
        make_rule("hot", "v", alert_rule::op_kind::above, 10.0),
        make_rule("cold", "v", alert_rule::op_kind::below, 2.0),
    };
    EXPECT_EQ(evaluate_alert_rules(rules, one_series("v", {5.0})).size(),
              0U);
    const auto hot = evaluate_alert_rules(rules, one_series("v", {10.0}));
    ASSERT_EQ(hot.size(), 1U); // inclusive threshold
    EXPECT_EQ(hot[0].rule->name, "hot");
    const auto cold =
        evaluate_alert_rules(rules, one_series("v", {12.0, 1.0}));
    ASSERT_EQ(cold.size(), 1U);
    EXPECT_EQ(cold[0].rule->name, "cold");
    EXPECT_DOUBLE_EQ(cold[0].value, 1.0);
}

TEST(AlertEngineTest, DeltaAndSlopeUseTheSignedThreshold) {
    const std::vector<alert_rule> rise = {
        make_rule("rise", "v", alert_rule::op_kind::delta, 5.0, 3)};
    const std::vector<alert_rule> drop = {
        make_rule("drop", "v", alert_rule::op_kind::delta, -5.0, 3)};
    // Window of 3 over the last samples: 10 -> 16 rises by 6.
    EXPECT_EQ(
        evaluate_alert_rules(rise, one_series("v", {0.0, 10.0, 13.0, 16.0}))
            .size(),
        1U);
    EXPECT_EQ(
        evaluate_alert_rules(drop, one_series("v", {0.0, 10.0, 13.0, 16.0}))
            .size(),
        0U);
    EXPECT_EQ(
        evaluate_alert_rules(drop, one_series("v", {0.0, 16.0, 13.0, 10.0}))
            .size(),
        1U);
    // Too few samples for the window: not firing.
    EXPECT_EQ(evaluate_alert_rules(rise, one_series("v", {0.0, 100.0}))
                  .size(),
              0U);

    const std::vector<alert_rule> slope = {
        make_rule("drift", "v", alert_rule::op_kind::slope, 2.0, 4)};
    // Values 1, 3, 5, 7: slope exactly 2 per step.
    const auto fired =
        evaluate_alert_rules(slope, one_series("v", {1.0, 3.0, 5.0, 7.0}));
    ASSERT_EQ(fired.size(), 1U);
    EXPECT_DOUBLE_EQ(fired[0].value, 2.0);
    EXPECT_EQ(
        evaluate_alert_rules(slope, one_series("v", {7.0, 5.0, 3.0, 1.0}))
            .size(),
        0U);
}

TEST(AlertEngineTest, TransitionsFireExactlyOncePerStateChange) {
    alert_engine engine(
        {make_rule("hot", "v", alert_rule::op_kind::above, 10.0)});
    timeline_recorder recorder;

    recorder.append("v", recorder.advance(), 5.0);
    EXPECT_TRUE(engine.evaluate(recorder.snapshot(), 1).empty());
    EXPECT_EQ(engine.firing_count(), 0U);

    recorder.append("v", recorder.advance(), 12.0);
    auto events = engine.evaluate(recorder.snapshot(), 2);
    ASSERT_EQ(events.size(), 1U);
    EXPECT_TRUE(events[0].firing);
    EXPECT_EQ(events[0].tick, 2U);
    EXPECT_EQ(engine.firing(), std::vector<std::string>{"hot:v"});

    recorder.append("v", recorder.advance(), 13.0);
    EXPECT_TRUE(engine.evaluate(recorder.snapshot(), 3).empty()); // steady

    recorder.append("v", recorder.advance(), 5.0);
    events = engine.evaluate(recorder.snapshot(), 4);
    ASSERT_EQ(events.size(), 1U);
    EXPECT_FALSE(events[0].firing);
    EXPECT_EQ(engine.firing_count(), 0U);
    EXPECT_EQ(engine.events().size(), 2U);
}

TEST(AlertEngineTest, ReplayRestoresFiringStateWithoutEvaluation) {
    alert_engine live(
        {make_rule("hot", "v", alert_rule::op_kind::above, 10.0)});
    timeline_recorder recorder;
    recorder.append("v", recorder.advance(), 12.0);
    const auto events = live.evaluate(recorder.snapshot(), 1);
    ASSERT_EQ(events.size(), 1U);

    alert_engine warmed(
        {make_rule("hot", "v", alert_rule::op_kind::above, 10.0)});
    warmed.replay(events[0]);
    EXPECT_EQ(warmed.firing(), live.firing());
    ASSERT_EQ(warmed.events().size(), 1U);

    // The warmed engine sees the same series and reports no transition:
    // restart converges instead of double-firing.
    EXPECT_TRUE(warmed.evaluate(recorder.snapshot(), 2).empty());

    // The timeline artifact renders both identically.
    const std::string from_live = write_timeline_json(recorder, &live);
    EXPECT_EQ(from_live, write_timeline_json(recorder, &warmed));
    EXPECT_NE(from_live.find("\"firing\": [\"hot:v\"]"), std::string::npos);
}

// --- prometheus exposition ----------------------------------------------

TEST(PrometheusTest, RendersCountersGaugesAndCumulativeHistograms) {
    metrics_registry registry(1);
    const counter_handle runs = registry.counter("engine.runs");
    const gauge_handle power = registry.gauge("fleet.power_binned_w");
    const histogram_handle bins =
        registry.histogram("fleet.bin_mv", {900, 950});
    registry.add(0, runs, 3);
    registry.set(0, power, 1, 123.5);
    registry.observe(0, bins, 890);
    registry.observe(0, bins, 940);
    registry.observe(0, bins, 990);

    std::ostringstream out;
    write_prometheus_text(out, registry);
    const std::string text = out.str();
    EXPECT_NE(text.find("# TYPE gb_engine_runs counter\n"
                        "gb_engine_runs 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE gb_fleet_power_binned_w gauge\n"
                        "gb_fleet_power_binned_w 123.5\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE gb_fleet_bin_mv histogram\n"
                        "gb_fleet_bin_mv_bucket{le=\"900\"} 1\n"
                        "gb_fleet_bin_mv_bucket{le=\"950\"} 2\n"
                        "gb_fleet_bin_mv_bucket{le=\"+Inf\"} 3\n"
                        "gb_fleet_bin_mv_sum 2820\n"
                        "gb_fleet_bin_mv_count 3\n"),
              std::string::npos);

    // Deterministic: a second snapshot renders the same bytes.
    std::ostringstream again;
    write_prometheus_text(again, registry);
    EXPECT_EQ(again.str(), text);
}

} // namespace
} // namespace gb
