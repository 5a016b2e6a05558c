// Property tests for the deterministic tracing/metrics layer: random span
// interleavings must export byte-identically, histogram merges must be
// associative and commutative, and the engine/supervisor integrations must
// produce the same bytes at any worker count.  A golden-trace case pins the
// exporter's format (regenerate with GB_UPDATE_GOLDEN=1 after deliberate
// format changes).
#include "harness/trace/trace.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/supervisor.hpp"
#include "harness/execution_engine.hpp"
#include "harness/fault_injection.hpp"
#include "harness/trace/metrics.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace gb {
namespace {

std::string chrome_json(const tracer& trace) {
    std::ostringstream out;
    write_chrome_trace(out, trace);
    return out.str();
}

std::string metrics_json(const metrics_registry& metrics) {
    std::ostringstream out;
    write_metrics_json(out, metrics);
    return out.str();
}

/// A deterministic batch of spans with distinct ordering keys.
std::vector<trace_span> make_spans(std::uint64_t seed, std::size_t count) {
    rng r(seed);
    std::vector<trace_span> spans;
    for (std::size_t i = 0; i < count; ++i) {
        trace_span span;
        span.name = "span" + std::to_string(i);
        span.category = "test";
        span.at.track = static_cast<std::uint32_t>(r.uniform_index(3));
        span.at.phase = static_cast<std::uint32_t>(r.uniform_index(4));
        span.at.major = i / 4; // collide majors across phases on purpose
        span.at.minor = static_cast<std::uint32_t>(i % 4);
        span.start_ticks = r.uniform_index(51);
        span.duration_ticks = 1 + r.uniform_index(100);
        span.instant = r.uniform_index(10) == 0;
        span.args.emplace_back("i", std::to_string(i));
        spans.push_back(std::move(span));
    }
    return spans;
}

TEST(TracerTest, RandomInterleavingsExportIdentically) {
    const std::vector<trace_span> spans = make_spans(11, 64);

    // Reference: everything recorded serially into shard 0.
    tracer reference(8);
    for (const trace_span& span : spans) {
        reference.record(0, span);
    }
    const std::string expected = chrome_json(reference);
    ASSERT_FALSE(expected.empty());

    // Property: any shard assignment and any per-shard insertion order
    // (i.e. any parallel schedule) exports the same bytes.
    for (std::uint64_t trial = 0; trial < 20; ++trial) {
        rng r(1000 + trial);
        tracer shuffled(8);
        std::vector<trace_span> order = spans;
        for (std::size_t i = order.size(); i > 1; --i) {
            std::swap(order[i - 1],
                      order[static_cast<std::size_t>(r.uniform_index(i))]);
        }
        for (const trace_span& span : order) {
            shuffled.record(static_cast<std::size_t>(r.uniform_index(8)),
                            span);
        }
        EXPECT_EQ(chrome_json(shuffled), expected) << "trial " << trial;
    }
}

TEST(TracerTest, OrderedSpansSortByFullKey) {
    tracer trace(4);
    trace_span a;
    a.name = "late";
    a.at = trace_point{1, 0, 5, 0};
    trace_span b;
    b.name = "early";
    b.at = trace_point{0, 2, 9, 3};
    trace.record(3, a);
    trace.record(1, b);
    const std::vector<trace_span> ordered = trace.ordered_spans();
    ASSERT_EQ(ordered.size(), 2u);
    EXPECT_EQ(ordered[0].name, "early"); // track 0 before track 1
    EXPECT_EQ(ordered[1].name, "late");
    EXPECT_EQ(trace.size(), 2u);
    trace.clear();
    EXPECT_EQ(trace.size(), 0u);
}

TEST(TracerTest, PhaseAllocationIsSequential) {
    tracer trace;
    EXPECT_EQ(trace.allocate_phase(), 0u);
    EXPECT_EQ(trace.allocate_phase(), 1u);
    EXPECT_EQ(trace.allocate_phase(), 2u);
}

TEST(TracerTest, JsonEscapeHandlesControlBytes) {
    EXPECT_EQ(json_escape("plain"), "plain");
    EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(json_escape("x\n\t\r"), "x\\n\\t\\r");
    EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(MetricsTest, HistogramMergeIsAssociativeAndCommutative) {
    const std::vector<std::uint64_t> bounds{10, 100, 1000};
    const auto make = [&](std::uint64_t seed, int samples) {
        histogram_snapshot h;
        h.bounds = bounds;
        h.counts.assign(bounds.size() + 1, 0);
        rng r(seed);
        for (int i = 0; i < samples; ++i) {
            const std::uint64_t value = r.uniform_index(2001);
            std::size_t b = 0;
            while (b < bounds.size() && value > bounds[b]) {
                ++b;
            }
            ++h.counts[b];
            ++h.count;
            h.sum += value;
        }
        return h;
    };
    const auto equal = [](const histogram_snapshot& x,
                          const histogram_snapshot& y) {
        return x.bounds == y.bounds && x.counts == y.counts &&
               x.count == y.count && x.sum == y.sum;
    };

    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        const histogram_snapshot a = make(seed * 3 + 1, 40);
        const histogram_snapshot b = make(seed * 3 + 2, 25);
        const histogram_snapshot c = make(seed * 3 + 3, 60);
        EXPECT_TRUE(equal(merge(a, b), merge(b, a)));
        EXPECT_TRUE(equal(merge(merge(a, b), c), merge(a, merge(b, c))));
        const histogram_snapshot empty;
        EXPECT_TRUE(equal(merge(a, empty), a));
        EXPECT_TRUE(equal(merge(empty, a), a));
    }
}

TEST(MetricsTest, ShardDistributionDoesNotChangeTheSnapshot) {
    // Property: the same multiset of updates produces the same snapshot
    // (and bytes) no matter which shard each update landed in.
    const auto run = [](std::uint64_t shard_seed) {
        metrics_registry metrics(8);
        const counter_handle hits = metrics.counter("hits");
        const gauge_handle level = metrics.gauge("level");
        const histogram_handle lat =
            metrics.histogram("latency", {10, 100, 1000});
        rng r(shard_seed);
        for (std::uint64_t i = 0; i < 200; ++i) {
            const auto shard =
                static_cast<std::size_t>(r.uniform_index(8));
            metrics.add(shard, hits);
            metrics.set(shard, level, /*order=*/i,
                        static_cast<double>(i) * 0.5);
            metrics.observe(shard, lat, (i * 37) % 1500);
        }
        return metrics_json(metrics);
    };
    const std::string expected = run(1);
    for (std::uint64_t seed = 2; seed < 8; ++seed) {
        EXPECT_EQ(run(seed), expected) << "shard seed " << seed;
    }
}

TEST(MetricsTest, GaugeKeepsTheLargestOrderAcrossShards) {
    metrics_registry metrics(4);
    const gauge_handle g = metrics.gauge("g");
    metrics.set(3, g, /*order=*/7, 70.0);
    metrics.set(0, g, /*order=*/9, 90.0);
    metrics.set(1, g, /*order=*/8, 80.0);
    EXPECT_DOUBLE_EQ(metrics.snapshot().gauge_value("g"), 90.0);
    // A stale order never overwrites within a shard either.
    metrics.set(0, g, /*order=*/2, 20.0);
    EXPECT_DOUBLE_EQ(metrics.snapshot().gauge_value("g"), 90.0);
}

TEST(MetricsTest, HistogramBoundsAreInclusiveUpperLimits) {
    metrics_registry metrics(1);
    const histogram_handle h = metrics.histogram("h", {10, 100});
    metrics.observe(0, h, 10);  // first bucket (inclusive)
    metrics.observe(0, h, 11);  // second bucket
    metrics.observe(0, h, 100); // second bucket (inclusive)
    metrics.observe(0, h, 101); // overflow
    const metrics_snapshot snap = metrics.snapshot();
    const histogram_snapshot* hs = snap.histogram_named("h");
    ASSERT_NE(hs, nullptr);
    EXPECT_EQ(hs->counts, (std::vector<std::uint64_t>{1, 2, 1}));
    EXPECT_EQ(hs->count, 4u);
    EXPECT_EQ(hs->sum, 222u);
    EXPECT_EQ(snap.histogram_named("missing"), nullptr);
}

TEST(MetricsTest, WeightedObserveEqualsRepeatedSingleObserves) {
    metrics_registry weighted(1);
    metrics_registry repeated(1);
    const histogram_handle w = weighted.histogram("h", {10, 100});
    const histogram_handle r = repeated.histogram("h", {10, 100});
    // One value per bucket plus a wrapping sum: 2^62 x 5 overflows the
    // 64-bit sum exactly like five single observes do.
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> draws = {
        {10, 3}, {57, 1000}, {101, 7}, {std::uint64_t{1} << 62, 5}, {0, 0}};
    for (const auto& [value, count] : draws) {
        weighted.observe(0, w, value, count);
        for (std::uint64_t i = 0; i < count; ++i) {
            repeated.observe(0, r, value);
        }
    }
    const metrics_snapshot wsnap = weighted.snapshot();
    const metrics_snapshot rsnap = repeated.snapshot();
    const histogram_snapshot* ws = wsnap.histogram_named("h");
    const histogram_snapshot* rs = rsnap.histogram_named("h");
    ASSERT_NE(ws, nullptr);
    ASSERT_NE(rs, nullptr);
    EXPECT_EQ(ws->counts, rs->counts);
    EXPECT_EQ(ws->count, rs->count);
    EXPECT_EQ(ws->sum, rs->sum);
    EXPECT_EQ(ws->counts, (std::vector<std::uint64_t>{3, 1000, 12}));
    EXPECT_EQ(metrics_json(weighted), metrics_json(repeated));
}

TEST(MetricsTest, RegistrationIsIdempotentAndContractsHold) {
    metrics_registry metrics(2);
    const counter_handle a = metrics.counter("n");
    const counter_handle b = metrics.counter("n");
    EXPECT_EQ(a.id, b.id);
    const histogram_handle h = metrics.histogram("h", {1, 2});
    EXPECT_EQ(metrics.histogram("h", {1, 2}).id, h.id);
    EXPECT_THROW((void)metrics.histogram("h", {1, 3}), contract_violation);
    EXPECT_THROW((void)metrics.histogram("bad", {2, 2}),
                 contract_violation);
    EXPECT_THROW((void)metrics.histogram("empty", {}), contract_violation);
}

/// A faulty 40-task engine campaign with a deterministic task function;
/// used for cross-worker-count byte-identity and the golden trace.
std::string traced_engine_run(int workers, tracer* trace,
                              metrics_registry* metrics,
                              const fault_plan* faults) {
    execution_options options;
    options.workers = workers;
    options.base_seed = 99;
    options.campaign = "trace_test";
    options.faults = faults;
    options.retry_budget = 2;
    options.trace = trace;
    options.metrics = metrics;
    const execution_engine engine(options);
    std::vector<int> buckets(40, -1);
    const execution_stats stats =
        engine.run(buckets.size(), [&](const task_context& ctx) {
            const int bucket =
                ctx.aborted ? 7 : static_cast<int>(ctx.seed % 4);
            buckets[ctx.index] = bucket;
            return bucket;
        });
    EXPECT_EQ(stats.tasks, buckets.size());
    std::string csv;
    for (const int b : buckets) {
        csv += std::to_string(b);
    }
    return csv;
}

TEST(TraceIntegrationTest, EngineTraceIsByteIdenticalAcrossWorkerCounts) {
    const fault_plan faults = make_uniform_fault_plan(/*seed=*/5, 0.3);
    std::string reference_trace;
    std::string reference_metrics;
    std::string reference_buckets;
    for (const int workers : {1, 2, 8}) {
        tracer trace;
        metrics_registry metrics;
        const std::string buckets =
            traced_engine_run(workers, &trace, &metrics, &faults);
        const std::string trace_out = chrome_json(trace);
        const std::string metrics_out = metrics_json(metrics);
        if (workers == 1) {
            reference_trace = trace_out;
            reference_metrics = metrics_out;
            reference_buckets = buckets;
            // The faulty run must actually have traced fault events.
            EXPECT_NE(trace_out.find("rig_fault"), std::string::npos);
            continue;
        }
        EXPECT_EQ(trace_out, reference_trace) << workers << " workers";
        EXPECT_EQ(metrics_out, reference_metrics) << workers << " workers";
        EXPECT_EQ(buckets, reference_buckets) << workers << " workers";
    }
}

TEST(TraceIntegrationTest, SupervisorEventsLandInTheTrace) {
    const auto run = [] {
        supervisor_config config;
        config.breaker.disruption_weight = config.breaker.trip_score;
        config.breaker.quarantine_ttl = 2;
        operating_point_supervisor supervisor(config);
        tracer trace;
        metrics_registry metrics;
        supervisor.set_trace(&trace, &metrics);
        epoch_request request;
        request.pmd = 1;
        request.workload_class = "mix";
        request.desired_voltage = millivolts{920.0};
        request.desired_refresh = milliseconds{512.0};
        const epoch_fault_plan faults(epoch_fault_config{
            /*seed=*/3, /*sdc_rate=*/0.2, /*ce_burst_rate=*/0.2,
            /*hang_rate=*/0.3, /*ce_burst_words=*/16});
        for (std::uint64_t i = 0; i < 30; ++i) {
            (void)run_supervised_epoch(
                supervisor, request, [&](const epoch_plan& plan) {
                    epoch_result result;
                    result.outcome = run_outcome::ok;
                    result.epoch_power_w = 10.0;
                    result.unsupervised_power_w = 10.0;
                    if (plan.stage == 0) {
                        faults.apply(i, result);
                    }
                    return result;
                });
        }
        supervisor.telemetry().publish(metrics, 0,
                                       supervisor.telemetry().epochs);
        return std::pair(chrome_json(trace), metrics_json(metrics));
    };
    const auto [trace_out, metrics_out] = run();
    // One epoch span per accounted epoch plus the storm's instant events.
    EXPECT_NE(trace_out.find("\"name\":\"epoch\""), std::string::npos);
    EXPECT_NE(trace_out.find("watchdog_abort"), std::string::npos);
    EXPECT_NE(trace_out.find("breaker_trip"), std::string::npos);
    EXPECT_NE(trace_out.find("demote"), std::string::npos);
    EXPECT_NE(metrics_out.find("supervisor.epochs"), std::string::npos);
    EXPECT_NE(metrics_out.find("health.breaker_trips"), std::string::npos);
    // The whole scenario is seed-deterministic: a second run is identical.
    const auto [trace_again, metrics_again] = run();
    EXPECT_EQ(trace_again, trace_out);
    EXPECT_EQ(metrics_again, metrics_out);
}

TEST(TraceIntegrationTest, GoldenTraceMatches) {
    const fault_plan faults = make_uniform_fault_plan(/*seed=*/5, 0.3);
    tracer trace;
    metrics_registry metrics;
    (void)traced_engine_run(/*workers=*/4, &trace, &metrics, &faults);
    const std::string actual = chrome_json(trace);

    const std::string path =
        std::string(GB_GOLDEN_DIR) + "/engine_trace.json";
    if (std::getenv("GB_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path);
        out << actual;
        GTEST_SKIP() << "golden regenerated at " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden file " << path
                           << " (run with GB_UPDATE_GOLDEN=1 to create)";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual, expected.str())
        << "trace format drifted; regenerate the golden with "
           "GB_UPDATE_GOLDEN=1 if the change is deliberate";
}

} // namespace
} // namespace gb
