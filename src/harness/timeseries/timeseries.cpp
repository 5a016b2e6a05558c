#include "harness/timeseries/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "harness/timeseries/alerts.hpp"
#include "util/contracts.hpp"
#include "util/wire.hpp"

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

void write_timeline_json(std::ostream& out, const timeline_recorder& recorder,
                         const alert_engine* alerts) {
    const std::vector<series_snapshot> series = recorder.snapshot();
    out << "{\n  \"series\": {";
    for (std::size_t i = 0; i < series.size(); ++i) {
        const series_snapshot& s = series[i];
        out << (i > 0 ? "," : "") << "\n    \"" << json_escape(s.name)
            << "\": {\"count\": " << s.count
            << ", \"min\": " << format_double(s.min)
            << ", \"max\": " << format_double(s.max)
            << ", \"last\": " << format_double(s.last) << ", \"samples\": [";
        for (std::size_t j = 0; j < s.samples.size(); ++j) {
            out << (j > 0 ? "," : "") << '[' << s.samples[j].tick << ','
                << format_double(s.samples[j].value) << ']';
        }
        out << "], \"evicted\": {\"bounds\": [";
        for (std::size_t j = 0; j < s.evicted.bounds.size(); ++j) {
            out << (j > 0 ? "," : "") << s.evicted.bounds[j];
        }
        out << "], \"counts\": [";
        for (std::size_t j = 0; j < s.evicted.counts.size(); ++j) {
            out << (j > 0 ? "," : "") << s.evicted.counts[j];
        }
        out << "], \"count\": " << s.evicted.count
            << ", \"sum\": " << s.evicted.sum << "}}";
    }
    out << (series.empty() ? "" : "\n  ") << "},\n  \"alerts\": {\"rules\": "
        << (alerts != nullptr ? alerts->rules().size() : 0)
        << ", \"firing\": [";
    if (alerts != nullptr) {
        const std::vector<std::string> firing = alerts->firing();
        for (std::size_t i = 0; i < firing.size(); ++i) {
            out << (i > 0 ? "," : "") << '"' << json_escape(firing[i]) << '"';
        }
    }
    out << "], \"events\": [";
    if (alerts != nullptr) {
        const auto& events = alerts->events();
        for (std::size_t i = 0; i < events.size(); ++i) {
            const alert_event& event = events[i];
            out << (i > 0 ? "," : "") << "\n    {\"tick\": " << event.tick
                << ", \"rule\": \"" << json_escape(event.rule)
                << "\", \"series\": \"" << json_escape(event.series)
                << "\", \"state\": \""
                << (event.firing ? "firing" : "resolved")
                << "\", \"value\": " << format_double(event.value) << '}';
        }
        if (!events.empty()) {
            out << "\n  ";
        }
    }
    out << "]}\n}\n";
}

} // namespace gb
