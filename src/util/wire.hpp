// Wire kernel: the single owner of every byte-level convention the
// repository's artifacts share -- journals, raw logs, snapshots,
// timelines, traces, metrics and the CLI fault specs.
//
// The framework's results are only trustworthy because every record it
// writes parses back exactly (the paper's Fig 2 raw-log -> parsing-phase
// split).  Each decision below is therefore made once:
//
//   * numbers    -- doubles in shortest round-trip decimal form, so
//                   format -> parse is bit-exact; parsing is strict
//                   full-match and a double must be finite, so a corrupted
//                   "nan"/"inf" can never smuggle itself into a record;
//                   integer lists join with one separator ("0+1+3");
//   * JSON text  -- one escaper, control bytes as \u00XX;
//   * records    -- a kind word and `key=value` fields in one declared
//                   order, rendered and parsed by one codec that accepts
//                   exactly what it writes;
//   * hashes     -- FNV-1a over bytes and little-endian 64-bit words;
//   * files      -- whole-file reads;
//   * triggers   -- the `site@at[/param]` fault-spec grammar and the
//                   one-shot matching of the plans it arms.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/units.hpp"

namespace gb {

// --- numbers ---------------------------------------------------------------

/// Shortest round-trip decimal form of `value`.
[[nodiscard]] std::string format_double(double value);

/// 16 lowercase hex digits, zero padded (the journal's content and chain
/// fields).
[[nodiscard]] std::string format_hex(std::uint64_t value);

/// Strict integer parse: the whole of `text` is one base-`base` number
/// that fits `Int` (no whitespace, no '+', no '-' for unsigned types).
/// `out` is assigned only on success.  Instantiated for every standard
/// integer type from short up.
template <typename Int>
[[nodiscard]] bool parse_int(std::string_view text, Int& out, int base = 10);

/// Strict finite-double parse: the whole of `text` is one number, and
/// "nan", "inf" and out-of-range values are rejected.  `out` is assigned
/// only on success.
[[nodiscard]] bool parse_double(std::string_view text, double& out);

/// Optional-returning forms for command-line values.
[[nodiscard]] std::optional<long long> parse_integer(std::string_view text);
[[nodiscard]] std::optional<double> parse_number(std::string_view text);

/// Integers joined by `sep` ("0+1+3").
template <typename Range>
[[nodiscard]] std::string format_list(const Range& values, char sep) {
    std::string text;
    for (const auto value : values) {
        if (!text.empty()) {
            text += sep;
        }
        text += std::to_string(value);
    }
    return text;
}

/// Strict parse of a `sep`-separated integer list: every element, an
/// empty one included, must pass parse_int.  `out` is assigned only on
/// success.
template <typename Int>
[[nodiscard]] bool parse_list(std::string_view text, char sep,
                              std::vector<Int>& out) {
    std::vector<Int> values;
    for (std::size_t pos = 0;;) {
        const std::size_t end = std::min(text.find(sep, pos), text.size());
        Int value{};
        if (!parse_int(text.substr(pos, end - pos), value)) {
            return false;
        }
        values.push_back(value);
        if (end == text.size()) {
            break;
        }
        pos = end + 1;
    }
    out = std::move(values);
    return true;
}

// --- JSON strings ----------------------------------------------------------

/// Escape `text` for the inside of a JSON string literal: quote and
/// backslash, \n \r \t by name, every other byte below 0x20 as \u00XX.
[[nodiscard]] std::string json_escape(std::string_view text);

// --- key=value records -----------------------------------------------------
//
// Every journal record -- the `task=N` frame of each line, the campaign's
// `run=`/`dram=` records, and the fleet's `probe` (closed by its `chain=`
// link), `tline`, `alert` and `tseal` payloads -- is a kind word (empty
// for all but the fleet's payloads) and `key=value` fields, joined by
// single spaces.  A format declares its kind and field order once, as a stateless
// struct that render and parse both walk:
//
//   struct seal_format {
//       static constexpr std::string_view kind = "tseal";
//       static void fields(auto& field, auto& record) {
//           field("epoch", record.epoch);
//           field("samples", record.samples);
//       }
//   };
//
// A field is a double, a unit quantity, an integer, a non-empty string or
// one of the adaptors below.  A payload parses only if each field reads at
// its place (doubles finite, strings non-empty, enum names known) and the
// record renders back to exactly the payload's bytes, so a missing,
// repeated, reordered or unknown field, another spelling of a value
// ("900.0", "0900", a short hex) or trailing bytes leave it unparsed.

/// The enumerator among the first `count` values of `Enum` whose
/// `to_string` spells `text`; `out` is assigned only on success.
template <typename Enum>
[[nodiscard]] bool enum_from_name(std::string_view text, std::size_t count,
                                  Enum& out) {
    for (std::size_t i = 0; i < count; ++i) {
        if (text == to_string(static_cast<Enum>(i))) {
            out = static_cast<Enum>(i);
            return true;
        }
    }
    return false;
}

/// A 64-bit value as 16 lowercase hex digits (format_hex).
template <typename T>
struct as_hex {
    T& value;
    void write(std::string& out) const { out += format_hex(value); }
    bool read(std::string_view text) const {
        return parse_int(text, value, 16);
    }
};

/// Integers joined by `sep`; a std::array reads back only at its size.
template <typename List>
struct joined {
    List& values;
    char sep;
    void write(std::string& out) const { out += format_list(values, sep); }
    bool read(std::string_view text) const {
        std::vector<typename List::value_type> parsed;
        if (!parse_list(text, sep, parsed)) {
            return false;
        }
        if constexpr (std::is_same_v<List, decltype(parsed)>) {
            values = std::move(parsed);
        } else if (parsed.size() == values.size()) {
            std::copy(parsed.begin(), parsed.end(), values.begin());
        } else {
            return false;
        }
        return true;
    }
};

/// An enumerator by its `to_string` name, among the first `count`.
template <typename Enum>
struct named {
    Enum& value;
    std::size_t count;
    void write(std::string& out) const { out += to_string(value); }
    bool read(std::string_view text) const {
        return enum_from_name(text, count, value);
    }
};

/// A bool spelt `off` or `on`.
template <typename Bool>
struct flag {
    Bool& value;
    std::string_view off;
    std::string_view on;
    void write(std::string& out) const { out += value ? on : off; }
    bool read(std::string_view text) const {
        value = text == on;
        return value || text == off;
    }
};

/// How far read_record got through a payload.
struct record_read {
    std::size_t fields = 0; ///< leading fields read in place and valid
    bool exact = false;     ///< all read, and the record renders as the payload
};

namespace wire_detail {

template <typename T>
void write_value(std::string& out, const T& value) {
    if constexpr (std::is_same_v<T, double>) {
        out += format_double(value);
    } else if constexpr (std::is_integral_v<T>) {
        out += std::to_string(value);
    } else if constexpr (std::is_same_v<T, std::string>) {
        out += value;
    } else if constexpr (std::is_base_of_v<quantity<T>, T>) {
        out += format_double(value.value);
    } else {
        value.write(out);
    }
}

template <typename T>
bool read_value(std::string_view text, T& value) {
    if constexpr (std::is_same_v<T, double>) {
        return parse_double(text, value);
    } else if constexpr (std::is_integral_v<T>) {
        return parse_int(text, value);
    } else if constexpr (std::is_same_v<T, std::string>) {
        value.assign(text);
        return !text.empty();
    } else if constexpr (std::is_base_of_v<quantity<T>, T>) {
        return parse_double(text, value.value);
    } else {
        return value.read(text);
    }
}

struct field_writer {
    std::string& out;
    template <typename Value>
    void operator()(std::string_view key, const Value& value) {
        if (!out.empty()) {
            out += ' ';
        }
        out += key;
        out += '=';
        write_value(out, value);
    }
};

struct field_reader {
    std::string_view payload;
    std::size_t pos; ///< end of the kind word or of the last field read
    record_read read;
    bool failed = false;

    template <typename Value>
    void operator()(std::string_view key, Value&& value) {
        // A field opens the payload or follows one space.
        failed = failed || (pos > 0 && payload.substr(pos, 1) != " ");
        const std::size_t begin = std::min(pos + (pos > 0 ? 1 : 0),
                                           payload.size());
        pos = std::min(payload.find(' ', begin), payload.size());
        const std::string_view field = payload.substr(begin, pos - begin);
        failed = failed || !field.starts_with(key) ||
                 field.substr(key.size(), 1) != "=" ||
                 !read_value(field.substr(key.size() + 1), value);
        read.fields += failed ? 0 : 1;
    }
};

} // namespace wire_detail

/// `record` in `Format`: its kind, then each field as `key=value`.
template <typename Format, typename Record>
[[nodiscard]] std::string render_record(const Record& record) {
    std::string out(Format::kind);
    wire_detail::field_writer writer{out};
    Format::fields(writer, record);
    return out;
}

/// Read `payload` into `record` in `Format`'s field order, stopping at the
/// first field that is missing, out of place or invalid (which may be left
/// changed): for diagnostics that depend on how far a payload got.
/// parse_record is the all-or-nothing form.
template <typename Format, typename Record>
[[nodiscard]] record_read read_record(std::string_view payload,
                                      Record& record) {
    if (!payload.starts_with(Format::kind)) {
        return {};
    }
    wire_detail::field_reader reader{payload, Format::kind.size(), {}, false};
    Format::fields(reader, record);
    reader.read.exact =
        !reader.failed && render_record<Format>(record) == payload;
    return reader.read;
}

/// True iff `payload` is exactly render_record of some record, which is
/// then assigned to `record` (untouched otherwise).
template <typename Format, typename Record>
[[nodiscard]] bool parse_record(std::string_view payload, Record& record) {
    Record parsed{};
    if (!read_record<Format>(payload, parsed).exact) {
        return false;
    }
    record = std::move(parsed);
    return true;
}

// --- FNV-1a ----------------------------------------------------------------

inline constexpr std::uint64_t fnv1a_basis = 14695981039346656037ULL;
inline constexpr std::uint64_t fnv1a_prime = 1099511628211ULL;

/// Fold `bytes` into `hash`.
[[nodiscard]] constexpr std::uint64_t fnv1a_bytes(std::uint64_t hash,
                                                  std::string_view bytes) {
    for (const char c : bytes) {
        hash = (hash ^ static_cast<unsigned char>(c)) * fnv1a_prime;
    }
    return hash;
}

/// Fold the 8 little-endian bytes of `word` into `hash`.
[[nodiscard]] constexpr std::uint64_t fnv1a_word(std::uint64_t hash,
                                                 std::uint64_t word) {
    for (int shift = 0; shift < 64; shift += 8) {
        hash = (hash ^ ((word >> shift) & 0xffU)) * fnv1a_prime;
    }
    return hash;
}

// --- files -----------------------------------------------------------------

/// The whole file at `path`; nullopt when it cannot be opened or read.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

// --- trigger specs ---------------------------------------------------------

/// Diagnostic vocabulary of one trigger-spec dialect.
struct trigger_grammar {
    std::string_view kind;       ///< "chaos", "sdc"
    std::string_view param;      ///< name of the optional field: "keep"
    std::string_view param_noun; ///< "an integer torn length"
};

/// One well-formed `site@at[/param]` trigger.
struct trigger_token {
    std::string_view site;
    std::uint64_t at = 0;
    std::optional<std::uint64_t> param; ///< absent or empty after '/'
};

/// Parse a comma-separated `site@at[/param]` spec (`at` positive).
/// `known_site` vets each site before its numbers are read; `add`
/// receives each trigger in order.  False with a one-line diagnostic
/// quoting the offending token on the first malformed trigger (the
/// triggers before it are already added).
[[nodiscard]] bool parse_trigger_spec(
    std::string_view spec, const trigger_grammar& grammar,
    const std::function<bool(std::string_view)>& known_site,
    const std::function<void(const trigger_token&)>& add,
    std::string& error);

/// One-shot trigger bookkeeping: each trigger fires at most once, and a
/// query fires the first not-yet-fired trigger it matches.
class trigger_latch {
public:
    explicit trigger_latch(std::size_t triggers) : fired_(triggers, false) {}

    /// Index of the trigger `matches(index)` selected, now marked fired;
    /// nullopt when no unfired trigger matches.
    template <typename Match>
    std::optional<std::size_t> fire(Match&& matches) {
        for (std::size_t t = 0; t < fired_.size(); ++t) {
            if (!fired_[t] && matches(t)) {
                fired_[t] = true;
                ++count_;
                return t;
            }
        }
        return std::nullopt;
    }

    /// Triggers fired so far.
    [[nodiscard]] std::uint64_t count() const { return count_; }

private:
    std::vector<bool> fired_;
    std::uint64_t count_ = 0;
};

} // namespace gb
