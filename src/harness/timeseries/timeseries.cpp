#include "harness/timeseries/timeseries.hpp"

#include <algorithm>
#include <cmath>

#include "harness/timeseries/alerts.hpp"
#include "util/contracts.hpp"
#include "util/json_codec.hpp"

namespace gb {

namespace {

/// Default evicted-histogram ladder: decades of milli-units, covering
/// health counters (units) through Vmin series (~10^6 milli-mV).
std::vector<std::uint64_t> default_evict_bounds() {
    return {1,       10,        100,        1000,
            10000,   100000,    1000000,    10000000};
}

/// Milli-unit scaling for the evicted histogram: integer buckets keep the
/// downsampling exactly associative.  Negative values clamp to zero (the
/// ladder is one-sided; series that go negative keep full fidelity in the
/// ring and min/max).
std::uint64_t milli_units(double value) {
    if (!(value > 0.0)) {
        return 0;
    }
    const double scaled = std::round(value * 1000.0);
    if (scaled >= 18446744073709549568.0) { // 2^64 rounded down a ulp
        return ~0ULL;
    }
    return static_cast<std::uint64_t>(scaled);
}

void fold_evicted(histogram_snapshot& histogram, double value) {
    const std::uint64_t scaled = milli_units(value);
    std::size_t bucket = histogram.bounds.size(); // overflow by default
    for (std::size_t i = 0; i < histogram.bounds.size(); ++i) {
        if (scaled <= histogram.bounds[i]) {
            bucket = i;
            break;
        }
    }
    histogram.counts[bucket] += 1;
    histogram.count += 1;
    histogram.sum += scaled;
}

} // namespace

std::vector<ts_sample> series_snapshot::tail(std::size_t window) const {
    const std::size_t n = std::min(window, samples.size());
    return {samples.end() - static_cast<std::ptrdiff_t>(n), samples.end()};
}

timeline_recorder::timeline_recorder(timeseries_config config)
    : config_(std::move(config)) {
    GB_EXPECTS(config_.capacity > 0);
    if (config_.evict_bounds.empty()) {
        config_.evict_bounds = default_evict_bounds();
    }
    for (std::size_t i = 1; i < config_.evict_bounds.size(); ++i) {
        GB_EXPECTS(config_.evict_bounds[i - 1] < config_.evict_bounds[i]);
    }
}

std::uint64_t timeline_recorder::advance() { return ++next_tick_; }

void timeline_recorder::observe_tick(std::uint64_t tick) {
    next_tick_ = std::max(next_tick_, tick);
}

void timeline_recorder::append(std::string_view series, std::uint64_t tick,
                               double value) {
    GB_EXPECTS(!series.empty());
    GB_EXPECTS(series.find(' ') == std::string_view::npos);
    auto it = series_.find(series);
    if (it == series_.end()) {
        series_data fresh;
        fresh.evicted.bounds = config_.evict_bounds;
        fresh.evicted.counts.assign(config_.evict_bounds.size() + 1, 0);
        it = series_.emplace(std::string(series), std::move(fresh)).first;
    }
    series_data& data = it->second;
    if (data.count == 0) {
        data.min = value;
        data.max = value;
    } else {
        data.min = std::min(data.min, value);
        data.max = std::max(data.max, value);
    }
    data.last = value;
    ++data.count;
    ++samples_;
    if (data.ring.size() == config_.capacity) {
        fold_evicted(data.evicted, data.ring.front().value);
        data.ring.pop_front();
    }
    data.ring.push_back({tick, value});
    observe_tick(tick);
}

std::vector<series_snapshot> timeline_recorder::snapshot() const {
    std::vector<series_snapshot> out;
    out.reserve(series_.size());
    for (const auto& [name, data] : series_) {
        series_snapshot view;
        view.name = name;
        view.samples.assign(data.ring.begin(), data.ring.end());
        view.count = data.count;
        view.min = data.min;
        view.max = data.max;
        view.last = data.last;
        view.evicted = data.evicted;
        out.push_back(std::move(view));
    }
    return out; // std::map iteration is already name-sorted
}

// --- the timeline format ---------------------------------------------------

template <>
struct json_object<ts_sample> {
    static constexpr json_layout layout = json_tuple;
    static void fields(auto& field, auto& sample) {
        field("tick", sample.tick);
        field("value", sample.value);
    }
};

template <>
struct json_object<series_snapshot> {
    static constexpr json_layout layout = json_spaced;
    static void fields(auto& field, auto& series) {
        field("count", series.count);
        field("min", series.min);
        field("max", series.max);
        field("last", series.last);
        field("samples", series.samples);
        field("evicted", series.evicted);
    }
};

template <>
struct json_object<alert_event> {
    static constexpr json_layout layout = json_spaced;
    static void fields(auto& field, auto& event) {
        field("tick", event.tick);
        field("rule", event.rule);
        field("series", event.series);
        field("state", flag{event.firing, "resolved", "firing"});
        field("value", event.value);
    }
};

namespace {

/// The `alerts` object; timeline_artifact keeps its fields flat.
template <typename Timeline>
struct alerts_view {
    Timeline& timeline;
};

/// One event per line.
constexpr json_layout event_lines{
    .brackets = "[]", .indent = "\n    ", .outdent = "\n  "};

} // namespace

template <typename Timeline>
struct json_object<alerts_view<Timeline>> {
    static constexpr json_layout layout = json_spaced;
    static void fields(auto& field, auto& alerts) {
        field("rules", alerts.timeline.alert_rules);
        field("firing", alerts.timeline.firing);
        field("events", json_items{alerts.timeline.events, event_lines});
    }
};

template <>
struct json_object<timeline_artifact> {
    static constexpr json_layout layout = json_document;
    static void fields(auto& field, auto& timeline) {
        field("series", json_named{timeline.series, json_section});
        field("alerts", alerts_view{timeline});
    }
};

const series_snapshot* timeline_artifact::find(std::string_view name) const {
    for (const series_snapshot& s : series) {
        if (s.name == name) {
            return &s;
        }
    }
    return nullptr;
}

std::size_t timeline_artifact::samples() const {
    std::size_t total = 0;
    for (const series_snapshot& s : series) {
        total += s.samples.size();
    }
    return total;
}

std::string write_timeline_json(const timeline_recorder& recorder,
                                const alert_engine* alerts) {
    timeline_artifact timeline;
    timeline.series = recorder.snapshot();
    if (alerts != nullptr) {
        timeline.alert_rules = alerts->rules().size();
        timeline.firing = alerts->firing();
        timeline.events = alerts->events();
    }
    return write_json(timeline);
}

std::optional<timeline_artifact> read_timeline_json(std::string_view text,
                                                    std::string& error) {
    timeline_artifact timeline;
    const json_read read = read_json_into(text, timeline);
    if (read.exact) {
        return timeline;
    }
    if (read.stop < text.size()) {
        error = json_mismatch("timeline", read.stop);
        return std::nullopt;
    }
    if (timeline.series.empty()) {
        error = "timeline holds only a truncated tail (still being "
                "written?)";
        return std::nullopt;
    }
    // Only whole series survive; a cut number may already have landed in
    // the alert section, so none of it does.
    timeline_artifact salvaged;
    salvaged.series = std::move(timeline.series);
    salvaged.truncated_tail = true;
    return salvaged;
}

} // namespace gb
