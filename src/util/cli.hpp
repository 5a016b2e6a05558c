// Checked command-line argument parsing for the tools, examples and benches.
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
#include <type_traits>

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

/// Boolean `--flag` (no value): consume its first occurrence and report
/// presence.
[[nodiscard]] bool take_flag(int& argc, char** argv, std::string_view name);

/// `--name value` as a number in [min, max] (`fallback` when absent):
/// `long long` parses strictly as an integer, `double` as a finite
/// number (the two instantiations).  Anything else prints "<program>:
/// <name> wants an integer in [min, max]" (or "a number") and yields
/// nullopt.
template <typename T>
[[nodiscard]] std::optional<T> ranged_flag(int& argc, char** argv,
                                           std::string_view name, T fallback,
                                           std::type_identity_t<T> min,
                                           std::type_identity_t<T> max);

/// After a command has taken every flag it knows, argv[first] onward
/// should be empty: anything left is a typo or a retired flag.  Prints
/// "<program>: unknown argument '<arg>'" for the first one and returns
/// true instead of letting the command run with defaults.
[[nodiscard]] bool leftover_argument(int argc, char** argv, int first);

} // namespace gb
