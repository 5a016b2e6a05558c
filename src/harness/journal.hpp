// Crash-safe, append-only campaign journal.
//
// The paper's rig streams raw per-run log lines off-board as they complete,
// so "a crashed board or a killed campaign loses at most the in-flight
// run".  This module is that property for our campaign runners: every
// completed task's record is serialized in the logfile wire format behind a
// `task=<index>` routing prefix, appended under a mutex and flushed
// line-by-line.  A killed campaign leaves a journal whose replay (through
// the tolerant logfile parsers -- corrupted or truncated lines are simply
// skipped and their tasks re-run) tells the resume path exactly which task
// indices are done; the engine re-runs only the remainder, and because
// doubles round-trip exactly, the resumed records and CSV are bitwise
// identical to an uninterrupted run at any worker count.
#pragma once

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "harness/campaign.hpp"
#include "harness/dram_campaign.hpp"

namespace gb {

class fault_plan;
class chaos_plan;
enum class chaos_site : std::uint8_t;

/// Thread-safe append sink for one campaign's journal lines.
class campaign_journal {
public:
    /// Append to a file (created if missing, existing lines kept -- the
    /// resume path reads them first and keeps appending to the same file).
    explicit campaign_journal(const std::string& path);
    /// Append to a caller-owned stream (tests, off-board pipes).
    explicit campaign_journal(std::ostream& sink);

    /// Arm the journal's kill-points (chaos.hpp): an append that trips
    /// its record's seam or the plan's `journal_append` byte threshold
    /// writes only the torn prefix of its line -- no trailing newline --
    /// flushes, and dies.  Null disarms.
    void set_chaos(chaos_plan* chaos);

    /// Append `task=<index> <line>` and flush.  When a fault plan with a
    /// log-corruption fault for this task is given, the written line is
    /// deterministically mangled instead (the record stays intact in
    /// memory; only the journal loses it, like a dying UART).  `seam`
    /// names the record's hit-counted chaos seam (the fleet's observatory
    /// records pass `timeline_append`); an armed journal hits it before
    /// the byte-threshold `journal_append` seam.
    void append(std::size_t task_index, std::string_view line,
                const fault_plan* faults = nullptr,
                std::optional<chaos_site> seam = std::nullopt);

    [[nodiscard]] std::uint64_t appended() const;
    [[nodiscard]] std::uint64_t corrupted() const;

private:
    std::ofstream file_;
    std::ostream* sink_;
    chaos_plan* chaos_ = nullptr;
    mutable std::mutex mutex_;
    std::uint64_t appended_ = 0;
    std::uint64_t corrupted_ = 0;
    /// Cumulative payload bytes written through this journal object
    /// (the chaos plan's `journal_append` thresholds count these).
    std::uint64_t bytes_written_ = 0;
};

/// Split a journal line into its task index and record payload.  Returns
/// false for lines without a well-formed `task=<index> ` prefix.
[[nodiscard]] bool parse_journal_prefix(std::string_view line,
                                        std::size_t& task_index,
                                        std::string_view& payload);

/// Replay of a (possibly truncated, possibly corrupted) journal: the
/// records recovered per task index, last write winning.  `skipped` counts
/// lines that were not recoverable records.
///
/// Live-tailed files: the writer appends whole lines ending in '\n', so a
/// final line without a trailing newline is a record still being written
/// (the fleet daemon ingests journals mid-append).  Such a tail is never
/// parsed -- even if its bytes happen to form a valid record, more bytes
/// may follow -- and is reported via `truncated_tail` instead of being
/// counted as skipped corruption.
struct cpu_journal_replay {
    std::map<std::size_t, run_record> completed;
    std::size_t skipped = 0;
    bool truncated_tail = false;
};
[[nodiscard]] cpu_journal_replay replay_cpu_journal(std::istream& in);

/// DRAM records of a journal, as gbreport's journal artifact reads them
/// (report/artifacts.hpp).
struct dram_journal_replay {
    std::map<std::size_t, dram_run_record> completed;
    std::size_t skipped = 0;
    bool truncated_tail = false;
};

} // namespace gb
