#include "harness/trace/trace.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <tuple>

#include "util/contracts.hpp"

namespace gb {

tracer::tracer(std::size_t shards) : shards_(shards) {
    GB_EXPECTS(shards >= 1);
}

std::uint32_t tracer::allocate_phase() { return next_phase_++; }

void tracer::record(std::size_t shard, trace_span span) {
    GB_EXPECTS(shard < shards_.size());
    shards_[shard].spans.push_back(std::move(span));
}

void tracer::name_track(std::uint32_t track, std::string name) {
    for (auto& [id, existing] : track_names_) {
        if (id == track) {
            existing = std::move(name);
            return;
        }
    }
    track_names_.emplace_back(track, std::move(name));
}

std::size_t tracer::size() const {
    std::size_t total = 0;
    for (const trace_shard& shard : shards_) {
        total += shard.spans.size();
    }
    return total;
}

void tracer::clear() {
    for (trace_shard& shard : shards_) {
        shard.spans.clear();
    }
}

std::vector<trace_span> tracer::ordered_spans() const {
    std::vector<trace_span> merged;
    merged.reserve(size());
    for (const trace_shard& shard : shards_) {
        merged.insert(merged.end(), shard.spans.begin(), shard.spans.end());
    }
    // The ordering key is deterministic per event; which shard an event
    // landed in is not.  A (non-stable) sort on the full key makes the
    // merged order a pure function of the recorded set as long as
    // producers never emit two events with identical keys -- ties fall
    // back to name so even a sloppy producer stays deterministic.
    std::sort(merged.begin(), merged.end(),
              [](const trace_span& a, const trace_span& b) {
                  return std::tie(a.at.track, a.at.phase, a.at.major,
                                  a.at.minor, a.start_ticks, a.name) <
                         std::tie(b.at.track, b.at.phase, b.at.major,
                                  b.at.minor, b.start_ticks, b.name);
              });
    return merged;
}

namespace {

void write_args(std::ostream& out, const trace_span& span) {
    out << "\"args\":{";
    for (std::size_t i = 0; i < span.args.size(); ++i) {
        out << (i > 0 ? "," : "") << '"' << json_escape(span.args[i].first)
            << "\":\"" << json_escape(span.args[i].second) << '"';
    }
    out << '}';
}

} // namespace

void write_chrome_trace(std::ostream& out, const tracer& trace) {
    const std::vector<trace_span> spans = trace.ordered_spans();

    // Slot layout: within one track, every (phase, major) scope gets a
    // slot as wide as its own extent (at least one tick), and slots are
    // laid end-to-end in key order.  Timestamps therefore depend only on
    // the recorded spans, never on scheduling.
    struct slot_key {
        std::uint32_t track;
        std::uint32_t phase;
        std::uint64_t major;
        bool operator<(const slot_key& other) const {
            return std::tie(track, phase, major) <
                   std::tie(other.track, other.phase, other.major);
        }
    };
    std::map<slot_key, std::uint64_t> extent;
    for (const trace_span& span : spans) {
        std::uint64_t& width =
            extent[slot_key{span.at.track, span.at.phase, span.at.major}];
        width = std::max(
            {width, span.start_ticks + span.duration_ticks, std::uint64_t{1}});
    }
    std::map<slot_key, std::uint64_t> base;
    std::map<std::uint32_t, std::uint64_t> cursor;
    for (const auto& [key, width] : extent) {
        std::uint64_t& track_cursor = cursor[key.track];
        base[key] = track_cursor;
        track_cursor += width;
    }

    out << "{\"traceEvents\":[";
    bool first = true;
    const auto comma = [&] {
        if (!first) {
            out << ",";
        }
        first = false;
        out << "\n";
    };
    // Track-name metadata first, in track order: explicit name_track
    // entries win, tracks that only appear in spans get a default name.
    std::map<std::uint32_t, std::string> names;
    for (const trace_span& span : spans) {
        names.try_emplace(span.at.track,
                          span.at.track == track_campaign ? "campaign"
                          : span.at.track == track_rig    ? "rig"
                          : span.at.track == track_supervisor
                              ? "supervisor"
                              : "track " + std::to_string(span.at.track));
    }
    for (const auto& [track, name] : trace.track_names()) {
        names[track] = name;
    }
    for (const auto& [track, name] : names) {
        comma();
        out << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << track
            << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
            << json_escape(name) << "\"}}";
    }
    for (const trace_span& span : spans) {
        const std::uint64_t ts =
            base[slot_key{span.at.track, span.at.phase, span.at.major}] +
            span.start_ticks;
        comma();
        out << "{\"ph\":\"" << (span.instant ? 'i' : 'X')
            << "\",\"pid\":0,\"tid\":" << span.at.track << ",\"ts\":" << ts;
        if (!span.instant) {
            out << ",\"dur\":" << span.duration_ticks;
        } else {
            out << ",\"s\":\"t\"";
        }
        out << ",\"name\":\"" << json_escape(span.name) << "\",\"cat\":\""
            << json_escape(span.category.empty() ? "gb" : span.category)
            << "\",";
        write_args(out, span);
        out << '}';
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

} // namespace gb
