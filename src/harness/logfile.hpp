// Raw execution logs and the parsing phase that consumes them.
//
// The paper's framework (Fig 2) stores raw per-run log lines during the
// execution phase (over serial/network into cloud storage) and turns them
// into the final CSV in a separate parsing phase -- so a crashed board or a
// killed campaign loses at most the in-flight run.  This module provides
// that wire format: one self-describing `run=` line per CPU record and one
// `dram=` line per DRAM record, plus line parsers that reject boot noise
// and truncated lines (the log of a crashing machine is never clean).
//
// Numbers follow the wire kernel (util/wire.hpp), so a parsed record is
// bit-for-bit the record that was written -- the property the crash-safe
// campaign journal's resume path is built on.
#pragma once

#include <string>
#include <string_view>

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
/// carrying the full scan_result so a read-back record is exact.
[[nodiscard]] std::string to_log_line(const dram_run_record& record);
[[nodiscard]] bool parse_log_line(std::string_view line,
                                  dram_run_record& record);

} // namespace gb
