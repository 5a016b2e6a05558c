// Minimal hardened JSON reader for the observability artifacts.
//
// The emit side (trace/trace.cpp, trace/metrics.cpp, timeseries) writes
// three JSON shapes -- Chrome trace_event, flat metrics, timelines -- and the
// fault injector deliberately corrupts logs, so the consume side has to
// assume every input byte is hostile.  This parser is a strict recursive
// descent over the full JSON grammar with a hard nesting cap; any
// malformed input yields a one-line diagnostic carrying the byte offset,
// never an exception or a crash.  It is a *reader*: there is no emitter
// here (producers format their own bytes deterministically).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gb::report {

/// One parsed JSON value.  A tagged struct rather than a variant keeps the
/// accessors boring and the error paths explicit.
class json_value {
public:
    enum class kind : std::uint8_t {
        null,
        boolean,
        number,
        string,
        array,
        object
    };

    kind type = kind::null;
    bool boolean = false;
    double number = 0.0;
    /// Set when the token was a plain integer that fits 64 bits: `number`
    /// alone rounds above 2^53, and counters (e.g. content hashes) need
    /// every bit.  `integer` holds the magnitude; `negative` its sign.
    bool integral = false;
    bool negative = false;
    std::uint64_t integer = 0;
    std::string text;
    std::vector<json_value> items; ///< array elements
    std::vector<std::pair<std::string, json_value>> members; ///< object

    /// Object member lookup (first match); null when absent or not an
    /// object.
    [[nodiscard]] const json_value* find(std::string_view key) const;

    // Typed accessors: nullopt when the value is not of the asked-for
    // shape (including numbers outside the integer range or non-integral).
    [[nodiscard]] std::optional<std::uint64_t> as_u64() const;
    [[nodiscard]] std::optional<double> as_number() const;
    [[nodiscard]] std::optional<std::string_view> as_string() const;

    [[nodiscard]] bool is_object() const { return type == kind::object; }
    [[nodiscard]] bool is_array() const { return type == kind::array; }
};

/// Parse outcome: either a value or a one-line diagnostic of the form
/// "byte <offset>: <reason>" with that offset.  Exactly one of the two is
/// meaningful.
struct json_parse_result {
    std::optional<json_value> value;
    std::string error;
    std::size_t error_offset = 0;
};

/// Parse a complete JSON document.  Trailing non-whitespace, unterminated
/// strings, bad escapes, numbers that do not round-trip, nesting deeper
/// than an internal cap -- everything lands in `error`.
[[nodiscard]] json_parse_result parse_json(std::string_view input);

} // namespace gb::report
