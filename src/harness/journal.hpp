// Crash-safe, append-only campaign journal.
//
// The paper's rig streams raw per-run log lines off-board as they complete,
// so "a crashed board or a killed campaign loses at most the in-flight
// run".  This module is that property for our campaign runners: every
// completed task's record is serialized in the logfile wire format behind a
// `task=<index>` routing prefix, appended under a mutex and flushed
// line-by-line.  A killed campaign leaves a journal whose tolerant replay
// (the logfile parsers accept only lines the writer writes; corrupted or
// truncated lines are skipped and their tasks re-run) tells the resume
// path exactly which task indices are done; the engine re-runs only the
// remainder, and because doubles round-trip exactly, the resumed records
// and CSV are bitwise identical to an uninterrupted run at any worker
// count.
#pragma once

#include <cstdint>
#include <fstream>
#include <istream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

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
    /// Throws std::runtime_error ("cannot open journal <path>") when the
    /// file cannot be opened for appending.
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
/// false for lines without a well-formed `task=<index> ` prefix (the
/// index spelt as the writer spells it: no sign, no leading zero).
[[nodiscard]] bool parse_journal_prefix(std::string_view line,
                                        std::size_t& task_index,
                                        std::string_view& payload);

/// One line of a journal as `for_each_journal_line` streams it.  The views
/// are valid only during the visit.
struct journal_line {
    std::size_t lineno = 0;    ///< 1-based
    std::uintmax_t offset = 0; ///< byte offset of the line's first byte
    std::string_view text;     ///< the bytes before the '\n'
    /// The stream's last line has no '\n'.  The writer appends whole
    /// lines, so this is a record still being written (a live tail) or
    /// the torn write of a killed writer -- never a record: a prefix of a
    /// record can itself look like a record, and more bytes may follow.
    bool torn = false;
    /// A complete line with a well-formed `task=N ` prefix, split into
    /// `task_index` and `payload`.
    bool framed = false;
    std::size_t task_index = 0;
    std::string_view payload;
};

/// Stream `in` in order, `visit(line)` per line, the torn tail included
/// (flagged, never framed).  The only line loop over journal bytes: every
/// reader shares this framing and decides only what to trust -- replay
/// (below) is tolerant and skips what it cannot parse; the fleet's warm
/// path is strict and heals the torn tail.
template <typename Visit>
void for_each_journal_line(std::istream& in, Visit&& visit) {
    journal_line line;
    std::string text;
    while (std::getline(in, text)) {
        ++line.lineno;
        line.text = text;
        line.torn = in.eof();
        line.framed = !line.torn &&
                      parse_journal_prefix(text, line.task_index,
                                           line.payload);
        visit(std::as_const(line));
        line.offset += text.size() + 1;
    }
}

/// Tolerant replay of a (possibly truncated, possibly corrupted) journal:
/// the CPU (`run=`) and DRAM (`dram=`) records recovered per task index,
/// last write winning, and every line the logfile parsers reject skipped,
/// plus the line accounting.  A torn tail is reported via
/// `truncated_tail` and is not counted in `lines` or `skipped`.
struct journal_replay {
    std::map<std::size_t, run_record> cpu;
    std::map<std::size_t, dram_run_record> dram;
    std::size_t lines = 0;   ///< complete non-empty lines
    std::size_t skipped = 0; ///< of those, lines that were not records
    bool truncated_tail = false;

    [[nodiscard]] std::size_t records() const {
        return cpu.size() + dram.size();
    }
};
[[nodiscard]] journal_replay replay_journal(std::istream& in);

} // namespace gb
