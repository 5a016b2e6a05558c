#include "harness/trace/trace.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "util/contracts.hpp"
#include "util/json_codec.hpp"

namespace gb {

tracer::tracer(std::size_t shards) : shards_(shards) {
    GB_EXPECTS(shards >= 1);
}

std::uint32_t tracer::allocate_phase() { return next_phase_++; }

void tracer::record(std::size_t shard, trace_span span) {
    GB_EXPECTS(shard < shards_.size());
    shards_[shard].spans.push_back(std::move(span));
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

const std::string* trace_event::arg(std::string_view key) const {
    for (const auto& [name, value] : args) {
        if (name == key) {
            return &value;
        }
    }
    return nullptr;
}

std::optional<std::uint64_t> trace_event::arg_u64(
    std::string_view key) const {
    const std::string* text = arg(key);
    std::uint64_t parsed = 0;
    if (text == nullptr || !parse_int(*text, parsed)) {
        return std::nullopt;
    }
    return parsed;
}

std::string_view to_string(trace_event::phase ph) {
    switch (ph) {
    case trace_event::phase::complete: return "X";
    case trace_event::phase::instant: return "i";
    case trace_event::phase::metadata: return "M";
    }
    return "?";
}

std::vector<const trace_event*> trace_artifact::on_track(
    std::uint32_t track) const {
    std::vector<const trace_event*> out;
    for (const trace_event& event : events) {
        if (event.track == track &&
            event.ph != trace_event::phase::metadata) {
            out.push_back(&event);
        }
    }
    return out;
}

// --- the trace format ------------------------------------------------------

template <>
struct json_object<trace_event> {
    static void fields(auto& field, auto& event) {
        using phase = trace_event::phase;
        field("ph", named{event.ph, 3});
        field("pid", json_verbatim{"0"});
        field("tid", event.track);
        if (event.ph != phase::metadata) {
            field("ts", event.ts);
        }
        if (event.ph == phase::complete) {
            field("dur", event.dur);
        }
        if (event.ph == phase::instant) {
            field("s", json_verbatim{"\"t\""});
        }
        field("name", event.name);
        if (event.ph != phase::metadata) {
            field("cat", event.category);
        }
        field("args", json_named{event.args, json_compact, false});
    }
};

/// One record per line, the first after the opening bracket.
constexpr json_layout trace_lines{
    .brackets = "[]", .indent = "\n", .outdent = "\n", .empty = "\n"};

template <>
struct json_object<trace_artifact> {
    static void fields(auto& field, auto& trace) {
        field("traceEvents", json_items{trace.events, trace_lines});
        field("displayTimeUnit", json_verbatim{"\"ms\""});
    }
};

std::string write_chrome_trace(const tracer& trace) {
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

    trace_artifact artifact;
    // Track-name metadata first, in track order.
    std::map<std::uint32_t, std::string> names;
    for (const trace_span& span : spans) {
        names.try_emplace(span.at.track,
                          span.at.track == track_campaign ? "campaign"
                          : span.at.track == track_rig    ? "rig"
                          : span.at.track == track_supervisor
                              ? "supervisor"
                              : "track " + std::to_string(span.at.track));
    }
    for (const auto& [track, name] : names) {
        trace_event& event = artifact.events.emplace_back();
        event.ph = trace_event::phase::metadata;
        event.track = track;
        event.name = "thread_name";
        event.args = {{"name", name}};
    }
    for (const trace_span& span : spans) {
        trace_event& event = artifact.events.emplace_back();
        event.ph = span.instant ? trace_event::phase::instant
                                : trace_event::phase::complete;
        event.track = span.at.track;
        event.ts =
            base[slot_key{span.at.track, span.at.phase, span.at.major}] +
            span.start_ticks;
        event.dur = span.duration_ticks;
        event.name = span.name;
        event.category = span.category.empty() ? "gb" : span.category;
        event.args = span.args;
    }
    return write_json(artifact);
}

std::optional<trace_artifact> read_chrome_trace(std::string_view text,
                                                std::string& error) {
    return read_json<trace_artifact>(text, "trace", error);
}

} // namespace gb
