// Raw execution logs and the parsing phase that consumes them.
//
// The paper's framework (Fig 2) stores raw per-run log lines during the
// execution phase (over serial/network into cloud storage) and turns them
// into the final CSV in a separate parsing phase -- so a crashed board or a
// killed campaign loses at most the in-flight run.  This module provides
// that wire format: one self-describing `run=` line per CPU record and one
// `dram=` line per DRAM record.  Each format is one field list of the
// wire kernel's record codec (util/wire.hpp), which renders a record and
// parses a line back from the same list, and parses exactly the lines it
// renders: boot noise, truncated lines and any line the writer never
// produces (a field missing, repeated, reordered or unknown, a number
// spelt another way) are rejected (the log of a crashing machine is never
// clean).
//
// Numbers round-trip bit-exactly, so a parsed record is bit-for-bit the
// record that was written -- the property the crash-safe campaign
// journal's resume path is built on.
#pragma once

#include <string>
#include <string_view>

#include "harness/campaign.hpp"
#include "harness/dram_campaign.hpp"

namespace gb {

/// Serialize one record as a single log line (no trailing newline).
[[nodiscard]] std::string to_log_line(const run_record& record);

/// Parse one log line; returns false (leaving `record` untouched) for any
/// line to_log_line does not write -- boot messages, truncation,
/// corruption.
[[nodiscard]] bool parse_log_line(std::string_view line, run_record& record);

/// DRAM counterpart of the wire format: one `dram=` line per scan record,
/// carrying the full scan_result so a read-back record is exact.
[[nodiscard]] std::string to_log_line(const dram_run_record& record);
[[nodiscard]] bool parse_log_line(std::string_view line,
                                  dram_run_record& record);

} // namespace gb
