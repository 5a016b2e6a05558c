// The file forms of the artifact readers gbreport consumes: the Chrome
// trace (trace/trace.hpp), the metrics document (trace/metrics.hpp), the
// task journal (journal.hpp), the timeline (timeseries/timeseries.hpp)
// and the status snapshot (status.hpp).  Each format's own module holds
// its one declaration, writer and strict reader; this header adds the
// whole-file read and tags each diagnostic with the path.
//
// Every loader is total: it either returns a validated model or a one-line
// diagnostic; corrupted, truncated or wrong-shape input (the rig-fault
// injector mangles logs by design) can never crash the consumer.  Loaders
// return std::nullopt and fill `error` -- the gbreport CLI turns that into
// a non-zero exit.
#pragma once

#include <optional>
#include <string>

#include "harness/journal.hpp"
#include "harness/status.hpp"
#include "harness/timeseries/timeseries.hpp"
#include "harness/trace/metrics.hpp"
#include "harness/trace/trace.hpp"

namespace gb::report {

[[nodiscard]] std::optional<trace_artifact> load_trace_file(
    const std::string& path, std::string& error);

/// Metrics artifacts parse straight back into the emit side's merged-view
/// type, so analyses and tests compare snapshots, not strings.
[[nodiscard]] std::optional<metrics_snapshot> load_metrics_file(
    const std::string& path, std::string& error);

/// Replay of one journal file (journal.hpp's `replay_journal`): CPU and
/// DRAM records can share a file; a live file's partial last line is a
/// truncated tail, not a parse error -- re-read later for the record.
using journal_artifact = journal_replay;

/// Fails (with a diagnostic) when the file is unreadable or contains no
/// recoverable record at all -- a journal that is *pure* corruption is an
/// error, partially corrupt ones just report their skipped count.
[[nodiscard]] std::optional<journal_artifact> load_journal_file(
    const std::string& path, std::string& error);

/// A torn timeline reads with `truncated_tail` set (read_timeline_json).
[[nodiscard]] std::optional<timeline_artifact> load_timeline_file(
    const std::string& path, std::string& error);

[[nodiscard]] std::optional<campaign_status> load_status_file(
    const std::string& path, std::string& error);

} // namespace gb::report
