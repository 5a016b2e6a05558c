// Raw execution logs and the parsing phase that consumes them.
//
// The paper's framework (Fig 2) stores raw per-run log lines during the
// execution phase (over serial/network into cloud storage) and turns them
// into the final CSV in a separate parsing phase -- so a crashed board or a
// killed campaign loses at most the in-flight run.  This module provides
// that wire format: one self-describing `run=` line per CPU record and one
// `dram=` line per DRAM record, plus tolerant parsers that skip boot noise
// and truncated lines (the log of a crashing machine is never clean).
//
// Numbers follow the wire kernel (util/wire.hpp), so a parsed record is
// bit-for-bit the record that was written -- the property the crash-safe
// campaign journal's resume path is built on.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/dram_campaign.hpp"

namespace gb {

/// Serialize one record as a single log line (no trailing newline).
[[nodiscard]] std::string to_log_line(const run_record& record);

/// Parse one log line; returns false (leaving `record` untouched) for lines
/// that are not well-formed run records -- boot messages, truncation,
/// corruption.
[[nodiscard]] bool parse_log_line(std::string_view line, run_record& record);

/// DRAM counterpart of the wire format: one `dram=` line per scan record,
/// carrying the full scan_result so resume reproduces records exactly.
[[nodiscard]] std::string to_log_line(const dram_run_record& record);
[[nodiscard]] bool parse_log_line(std::string_view line,
                                  dram_run_record& record);

/// Write a whole campaign's records as raw log lines.
void write_raw_log(std::ostream& out, const campaign_result& result);
void write_raw_log(std::ostream& out, const dram_campaign_result& result);

/// Parsing phase: recover every well-formed record from a raw log stream.
/// `skipped` (optional) receives the count of non-record lines.
[[nodiscard]] std::vector<run_record> parse_raw_log(std::istream& in,
                                                    std::size_t* skipped =
                                                        nullptr);
[[nodiscard]] std::vector<dram_run_record> parse_dram_raw_log(
    std::istream& in, std::size_t* skipped = nullptr);

} // namespace gb
