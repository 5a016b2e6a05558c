// Deterministic time-series engine: the time axis of the observability
// stack (produce: trace/metrics, consume: report/gbreport, and now
// *watch*: series, drift, alerts).
//
// A `timeline_recorder` holds named series of (virtual tick, value)
// samples.  The same discipline as the tracer and metrics registry
// applies: a sample must be a pure function of campaign content, never of
// scheduling, so appends happen at *serial points only* -- engine
// progress deciles (post-run, derived from per-task records in index
// order), supervisor epoch boundaries, and the fleet service's
// end-of-campaign observatory block.  The virtual clock is a plain
// monotonic counter advanced at those serial points; no wall time ever
// reaches an exported byte, so `write_timeline_json` output is bitwise
// identical at any GB_JOBS or shard count.
//
// Retention is a fixed-capacity ring per series.  Evicted samples are not
// dropped: each folds into a fixed-bucket histogram (the metrics
// registry's `histogram_snapshot` shape, integer milli-unit buckets), so
// downsampling is exactly associative -- replaying any prefix of appends
// reproduces the same ring and the same evicted buckets, which is what
// lets a restarted fleet daemon warm its timeline from the journal and
// converge byte-for-byte with a run that never crashed.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/trace/metrics.hpp"

namespace gb {

class alert_engine;

/// One retained sample: virtual tick and value.
struct ts_sample {
    std::uint64_t tick = 0;
    double value = 0.0;
};

struct timeseries_config {
    /// Ring capacity per series; older samples downsample into the
    /// evicted histogram.
    std::size_t capacity = 32;
    /// Inclusive upper bounds (strictly increasing) of the evicted-sample
    /// histogram, in milli-units of the sample value; one overflow bucket
    /// follows.  Empty selects the default decade ladder.
    std::vector<std::uint64_t> evict_bounds;
};

/// Deterministic view of one series: the retained ring plus summary and
/// the evicted-sample histogram.
struct series_snapshot {
    std::string name;
    std::vector<ts_sample> samples; ///< oldest to newest
    std::uint64_t count = 0;        ///< total appended, evicted included
    double min = 0.0;
    double max = 0.0;
    double last = 0.0;
    histogram_snapshot evicted;

    /// The trailing `window` retained samples (all of them when the ring
    /// holds fewer).
    [[nodiscard]] std::vector<ts_sample> tail(std::size_t window) const;
};

class timeline_recorder {
public:
    explicit timeline_recorder(timeseries_config config = {});

    /// Claim the next virtual tick (1-based, monotonic).  Serial call
    /// sites only.
    std::uint64_t advance();

    /// Keep the virtual clock ahead of a replayed tick (journal warm):
    /// after observing tick T, advance() returns at least T + 1.
    void observe_tick(std::uint64_t tick);

    /// Append one sample; registers the series on first use.  Serial call
    /// sites only.  Series names must be non-empty and space-free (they
    /// ride single-line wire formats).
    void append(std::string_view series, std::uint64_t tick, double value);

    [[nodiscard]] std::size_t series_count() const { return series_.size(); }
    /// Total samples ever appended across all series.
    [[nodiscard]] std::uint64_t sample_count() const { return samples_; }
    [[nodiscard]] std::uint64_t next_tick() const { return next_tick_ + 1; }
    [[nodiscard]] const timeseries_config& config() const { return config_; }

    /// Name-sorted deterministic view of every series.
    [[nodiscard]] std::vector<series_snapshot> snapshot() const;

private:
    struct series_data {
        std::deque<ts_sample> ring;
        std::uint64_t count = 0;
        double min = 0.0;
        double max = 0.0;
        double last = 0.0;
        histogram_snapshot evicted;
    };

    timeseries_config config_;
    std::map<std::string, series_data, std::less<>> series_;
    std::uint64_t next_tick_ = 0; ///< last tick handed out or observed
    std::uint64_t samples_ = 0;
};

/// One firing/resolved transition of a (rule, series) pair.
struct alert_event {
    std::uint64_t tick = 0;
    std::string rule;
    std::string series;
    bool firing = false; ///< false = resolved
    double value = 0.0;  ///< the measure at the transition
};

/// The timeline artifact (`timeline.json`): name-sorted series with
/// their retained samples, summaries and evicted histograms, plus the
/// alert section.  Series read back into the emit side's snapshot type,
/// so `gbreport alerts --rules` can re-run the stateless alert evaluator
/// over them.
struct timeline_artifact {
    std::vector<series_snapshot> series; ///< name-sorted
    std::uint64_t alert_rules = 0;       ///< rules loaded by the producer
    std::vector<std::string> firing;     ///< sorted "rule:series" labels
    std::vector<alert_event> events;     ///< transition history, in order
    /// Not rendered: the text ended mid-write (a crashed writer leaves a
    /// strict byte prefix), and the reader kept only the series it read
    /// whole.  The alert section is not read (no rules, firing labels or
    /// events), so an alert verdict must refuse the artifact.  Mirrors
    /// the journal's `truncated_tail` -- not a parse error, re-read later
    /// for the full document.
    bool truncated_tail = false;

    /// Series lookup by exact name; null when absent.
    [[nodiscard]] const series_snapshot* find(std::string_view name) const;

    [[nodiscard]] std::size_t samples() const;
};

/// The timeline artifact of recorder + engine state (rule count, sorted
/// firing list, events in append order): bitwise identical at any
/// GB_JOBS/shard count.  `alerts` may be null (the section renders
/// empty).
[[nodiscard]] std::string write_timeline_json(
    const timeline_recorder& recorder, const alert_engine* alerts = nullptr);

/// The timeline `text` holds, if write_timeline_json renders it back to
/// exactly `text`.  A text that matches the writer's bytes up to its last
/// byte is a torn tail: it reads with `truncated_tail` set, every series
/// read whole and an empty alert section, or fails with a truncated-tail
/// diagnostic when there is no whole series.  Otherwise nullopt, and
/// `error` reads "timeline: byte N: ..." with N the first byte that
/// differs from the writer's rendering.
[[nodiscard]] std::optional<timeline_artifact> read_timeline_json(
    std::string_view text, std::string& error);

} // namespace gb
