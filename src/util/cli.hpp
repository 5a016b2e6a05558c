// Checked command-line argument parsing for the examples and benches.
//
// The examples used to funnel argv through bare std::atoi/atof/atol, which
// return 0 on garbage and silently truncate trailing junk -- so
// `uniserver_autopilot 48x` ran zero phases without a word.  These helpers
// parse with the wire kernel's strict full-match parsers (parse_integer,
// parse_number) plus a range check, and the positional-argument wrappers
// exit with a diagnostic instead of running a nonsense experiment.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "util/wire.hpp"

namespace gb {

/// Positional integer argument: argv[index] if present, else `fallback`.
/// Exits with status 2 and a diagnostic naming `name` when the argument is
/// present but not an integer in [min, max].
[[nodiscard]] long long int_arg(int argc, char** argv, int index,
                                long long fallback, std::string_view name,
                                long long min, long long max);

/// Positional floating-point argument, same contract as int_arg.
[[nodiscard]] double double_arg(int argc, char** argv, int index,
                                double fallback, std::string_view name,
                                double min, double max);

/// Find `--name value` (or `--name=value`) anywhere in argv, remove the
/// consumed elements in place (decrementing argc) and return the value, so
/// positional int_arg/double_arg indices keep working afterwards.  Every
/// occurrence is consumed; duplicates resolve last-wins with a one-line
/// stderr warning (a silently ignored repeat once hid a typoed override).
/// Exits with status 2 when the flag is present but its value is missing.
/// Returns nullopt when the flag is absent.
[[nodiscard]] std::optional<std::string> take_flag_value(
    int& argc, char** argv, std::string_view name);

} // namespace gb
