// Deterministic span tracing for the campaign/supervisor stack.
//
// The repo's core invariant is bitwise-identical output at any GB_JOBS, and
// that invariant extends to observability: a trace that changed with the
// worker count could never be a regression surface.  So nothing here reads
// a wall clock.  Every event carries a *deterministic ordering key*
//
//     (track, phase, major, minor)
//
// where `track` is the subsystem lane (campaign control, rig tasks,
// supervisor epochs), `phase` is allocated serially per engine run /
// supervisor attachment, `major` is the task or epoch index, and `minor`
// sequences events inside one scope.  Event times are *virtual ticks*
// local to the (phase, major) slot; the Chrome exporter lays slots out
// end-to-end per track, so the rendered timeline shows tasks in submission
// order regardless of which worker actually ran them.
//
// Recording is lock-free: the tracer owns a fixed array of per-worker
// shards (worker w appends only to shard w, serial code uses shard 0), and
// the export merges all shards with a stable sort on the ordering key.
// Because neither the key nor the tick values depend on scheduling, the
// exported JSON is byte-identical at any worker count -- the property the
// golden-trace tests pin down.  A null tracer pointer is the "off" switch:
// every producer checks it before building an event.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "util/wire.hpp" // json_escape, for the JSON emitters

namespace gb {

/// Well-known tracks (Chrome `tid` lanes).  Keep these stable: golden
/// traces encode them.
inline constexpr std::uint32_t track_campaign = 0;   ///< campaign control
inline constexpr std::uint32_t track_rig = 1;        ///< engine task scopes
inline constexpr std::uint32_t track_supervisor = 2; ///< supervisor epochs

/// Deterministic ordering key of one event.  Events sort by
/// (track, phase, major, minor); ties are impossible by construction when
/// producers sequence `minor` within a scope.
struct trace_point {
    std::uint32_t track = 0;
    std::uint32_t phase = 0;
    std::uint64_t major = 0;
    std::uint32_t minor = 0;
};

/// One completed span (or instant event, when `instant` is set).  Times
/// are virtual ticks relative to the event's (phase, major) slot; the
/// exporter assigns absolute timestamps deterministically.
struct trace_span {
    std::string name;
    std::string category;
    trace_point at;
    std::uint64_t start_ticks = 0;
    std::uint64_t duration_ticks = 0;
    bool instant = false;
    /// Pre-formatted key/value pairs (producers format deterministically).
    std::vector<std::pair<std::string, std::string>> args;
};

/// Span recorder with fixed lock-free shards.  Shard s may only be
/// appended to by one thread at a time (the engine maps worker w to shard
/// w; serial code uses shard 0).  Phases are allocated at serial points
/// (engine run start, supervisor attachment), so their order -- and with
/// it the merged event order -- is program order, not scheduling order.
class tracer {
public:
    /// Default shard budget covers the engine's worker cap (256) plus the
    /// serial shard 0.
    explicit tracer(std::size_t shards = 257);

    /// Allocate the next phase id (serial call sites only).
    [[nodiscard]] std::uint32_t allocate_phase();

    /// Append a span to `shard`.  Lock-free; the caller owns the shard.
    void record(std::size_t shard, trace_span span);

    /// All recorded spans merged across shards in deterministic
    /// (track, phase, major, minor) order.
    [[nodiscard]] std::vector<trace_span> ordered_spans() const;

    [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
    [[nodiscard]] std::size_t size() const;

    /// Drop all recorded spans (serial call sites only).
    void clear();

private:
    /// Cache-line aligned so concurrent appends on neighbouring shards do
    /// not false-share.
    struct alignas(64) trace_shard {
        std::vector<trace_span> spans;
    };

    std::vector<trace_shard> shards_;
    std::uint32_t next_phase_ = 0;
};

/// Chrome trace_event JSON (open with chrome://tracing or Perfetto).
/// Slots are laid out end-to-end per track in key order, so the output is
/// a pure function of the recorded spans -- byte-identical at any worker
/// count for a deterministic producer.
void write_chrome_trace(std::ostream& out, const tracer& trace);

} // namespace gb
