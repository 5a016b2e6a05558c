// Deterministic metrics registry: counters, gauges and fixed-bucket
// histograms with lock-free per-worker shards.
//
// The same discipline as the tracer (trace.hpp): a metric value must be a
// pure function of the campaign's deterministic content, never of
// scheduling.  Three mechanisms make the merged snapshot order-independent:
//
//   * counters and histogram bucket counts are unsigned integers, so
//     cross-shard summation is exactly associative and commutative (the
//     property tests/harness_trace_test.cpp exercises);
//   * histogram *sums* are integer ticks too -- no floating accumulation
//     order to leak scheduling;
//   * gauges carry an explicit order key (task or epoch index); the merge
//     keeps the value with the largest key, so "last write wins" means
//     last in *deterministic* order, not last in wall time.
//
// Registration (name -> dense id) happens at serial points only; updates
// are wait-free writes into the calling worker's shard.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gb {

struct counter_handle {
    std::uint32_t id = 0;
};
struct gauge_handle {
    std::uint32_t id = 0;
};
struct histogram_handle {
    std::uint32_t id = 0;
};

/// Merged view of one histogram.  `bounds` are inclusive upper bounds of
/// the first N buckets; one overflow bucket follows, so
/// counts.size() == bounds.size() + 1.
struct histogram_snapshot {
    std::vector<std::uint64_t> bounds;
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
};

/// Exact (integer) merge; associative and commutative.  Both operands
/// must share bounds.
[[nodiscard]] histogram_snapshot merge(const histogram_snapshot& a,
                                       const histogram_snapshot& b);

/// Deterministic merged view of a registry, sorted by metric name.
struct metrics_snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, histogram_snapshot>> histograms;

    /// Value lookups for tests and reports (0 / empty when absent).
    [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
    [[nodiscard]] double gauge_value(std::string_view name) const;
    [[nodiscard]] const histogram_snapshot* histogram_named(
        std::string_view name) const;
};

class metrics_registry {
public:
    /// Default shard budget covers the engine's worker cap (256) plus the
    /// serial shard 0.
    explicit metrics_registry(std::size_t shards = 257);

    // --- registration: serial call sites only, idempotent by name -------
    [[nodiscard]] counter_handle counter(std::string_view name);
    [[nodiscard]] gauge_handle gauge(std::string_view name);
    /// `bounds` must be strictly increasing; re-registering a histogram
    /// name requires identical bounds.
    [[nodiscard]] histogram_handle histogram(
        std::string_view name, std::vector<std::uint64_t> bounds);

    // --- updates: wait-free, shard owned by the calling thread ----------
    void add(std::size_t shard, counter_handle handle,
             std::uint64_t delta = 1);
    void set(std::size_t shard, gauge_handle handle, std::uint64_t order,
             double value);
    /// Record `count` observations of `value` at once (every histogram
    /// field is an integer, so this equals `count` single observes).
    void observe(std::size_t shard, histogram_handle handle,
                 std::uint64_t value, std::uint64_t count = 1);

    /// Merge every shard into a name-sorted snapshot (serial call sites
    /// only).  Deterministic for deterministic producers.
    [[nodiscard]] metrics_snapshot snapshot() const;

    [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

private:
    struct gauge_cell {
        bool set = false;
        std::uint64_t order = 0;
        double value = 0.0;
    };
    struct histogram_cell {
        std::vector<std::uint64_t> counts;
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
    };
    /// Cache-line aligned: each shard is written by exactly one thread.
    struct alignas(64) metric_shard {
        std::vector<std::uint64_t> counters;
        std::vector<gauge_cell> gauges;
        std::vector<histogram_cell> histograms;
    };
    struct histogram_def {
        std::string name;
        std::vector<std::uint64_t> bounds;
    };

    std::vector<std::string> counter_names_;
    std::vector<std::string> gauge_names_;
    std::vector<histogram_def> histogram_defs_;
    std::vector<metric_shard> shards_;
};

/// Flat metrics JSON: one object with name-sorted "counters", "gauges"
/// and "histograms" sections.  Gauges use shortest round-trip formatting,
/// everything else is integral, so the bytes are deterministic.
void write_metrics_json(std::ostream& out, const metrics_snapshot& snapshot);
void write_metrics_json(std::ostream& out, const metrics_registry& registry);

/// Prometheus text exposition (version 0.0.4) of a snapshot, so external
/// scrapers can consume live fleet state.  Metric names are prefixed
/// `gb_` with every non-[a-zA-Z0-9_:] character mapped to '_'; histograms
/// render cumulative `_bucket{le="..."}` series plus `_sum`/`_count`.
/// Same determinism contract as the JSON writer: snapshot in, bytes out.
void write_prometheus_text(std::ostream& out,
                           const metrics_snapshot& snapshot);
void write_prometheus_text(std::ostream& out,
                           const metrics_registry& registry);

} // namespace gb
