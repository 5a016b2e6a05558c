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
//   * fields     -- space-separated `key=value` tokens;
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
#include <vector>

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

// --- key=value fields ------------------------------------------------------

/// The space-separated tokens of `line`; runs of spaces yield no empty
/// tokens.
[[nodiscard]] std::vector<std::string_view> split_fields(
    std::string_view line);

/// Value of the first `key=value` token; false when no token has the key.
[[nodiscard]] bool field_value(const std::vector<std::string_view>& tokens,
                               std::string_view key, std::string_view& value);

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
