// Typed in-memory models of the three observability artifact formats the
// emit side produces -- Chrome trace_event JSON (trace/trace.cpp), flat
// metrics JSON (trace/metrics.cpp) and the task journal (journal.cpp) --
// plus the status-heartbeat snapshot (status.hpp owns that format).
//
// Every loader is total: it either returns a validated model or a one-line
// diagnostic; corrupted, truncated or wrong-shape input (the rig-fault
// injector mangles logs by design) can never crash the consumer.  Loaders
// return std::nullopt and fill `error` -- the gbreport CLI turns that into
// a non-zero exit.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/journal.hpp"
#include "harness/status.hpp"
#include "harness/timeseries/alerts.hpp"
#include "harness/trace/metrics.hpp"

namespace gb::report {

// --- Chrome trace_event -------------------------------------------------

/// One event recovered from a trace file.  `ts`/`dur` are the exporter's
/// deterministic virtual timestamps (per-track layout, see trace.cpp);
/// they are comparable within a track, not across tracks.
struct trace_event {
    enum class phase : std::uint8_t { complete, instant, metadata };
    phase ph = phase::complete;
    std::uint32_t track = 0;
    std::uint64_t ts = 0;
    std::uint64_t dur = 0;
    std::string name;
    std::string category;
    std::vector<std::pair<std::string, std::string>> args;

    /// Arg lookup; null when absent.
    [[nodiscard]] const std::string* arg(std::string_view key) const;
    [[nodiscard]] std::optional<std::uint64_t> arg_u64(
        std::string_view key) const;
};

struct trace_artifact {
    /// Non-metadata events in file order (the exporter emits layout
    /// order, so this is also deterministic submission order per track).
    std::vector<trace_event> events;
    /// Track id -> thread_name metadata.
    std::map<std::uint32_t, std::string> track_names;

    [[nodiscard]] std::vector<const trace_event*> on_track(
        std::uint32_t track) const;
};

[[nodiscard]] std::optional<trace_artifact> load_trace(std::string_view text,
                                                       std::string& error);
[[nodiscard]] std::optional<trace_artifact> load_trace_file(
    const std::string& path, std::string& error);

// --- flat metrics JSON --------------------------------------------------

/// Metrics artifacts parse straight back into the emit side's merged-view
/// type, so analyses and tests compare snapshots, not strings.
[[nodiscard]] std::optional<metrics_snapshot> load_metrics(
    std::string_view text, std::string& error);
[[nodiscard]] std::optional<metrics_snapshot> load_metrics_file(
    const std::string& path, std::string& error);

// --- task journal -------------------------------------------------------

/// Replay of one journal file (journal.hpp's `replay_journal`): CPU and
/// DRAM records can share a file; a live file's partial last line is a
/// truncated tail, not a parse error -- re-read later for the record.
using journal_artifact = journal_replay;

/// Fails (with a diagnostic) when the file is unreadable or contains no
/// recoverable record at all -- a journal that is *pure* corruption is an
/// error, partially corrupt ones just report their skipped count.
[[nodiscard]] std::optional<journal_artifact> load_journal_file(
    const std::string& path, std::string& error);

// --- timeline (fleet observatory) ---------------------------------------

/// Parsed `timeline.json` (timeseries/timeseries.cpp writes it).  Series
/// parse straight back into the emit side's snapshot type, so `gbreport
/// alerts --rules` can re-run the stateless alert evaluator over them.
struct timeline_artifact {
    /// Name-sorted, like the writer emits them.
    std::vector<series_snapshot> series;
    std::uint64_t alert_rules = 0;    ///< rules loaded by the producer
    std::vector<std::string> firing;  ///< sorted "rule:series" labels
    std::vector<alert_event> events;  ///< transition history, in order
    /// The document ended mid-write (a crashed writer leaves a strict
    /// byte prefix): the loader salvaged the complete-line prefix and
    /// dropped the partial tail.  Mirrors journal_artifact's
    /// `truncated_tail` -- not a parse error, re-read later for the
    /// full document.
    bool truncated_tail = false;

    /// Series lookup by exact name; null when absent.
    [[nodiscard]] const series_snapshot* find(std::string_view name) const;

    [[nodiscard]] std::size_t samples() const {
        std::size_t total = 0;
        for (const series_snapshot& s : series) {
            total += s.samples.size();
        }
        return total;
    }
};

/// Fails (with a diagnostic) when the text is malformed beyond a torn
/// tail, or when a torn tail left no complete series at all.
[[nodiscard]] std::optional<timeline_artifact> load_timeline(
    std::string_view text, std::string& error);
[[nodiscard]] std::optional<timeline_artifact> load_timeline_file(
    const std::string& path, std::string& error);

// --- status heartbeat ---------------------------------------------------

/// A `--status` snapshot file, read by status.hpp's strict reader.
[[nodiscard]] std::optional<campaign_status> load_status_file(
    const std::string& path, std::string& error);

} // namespace gb::report
