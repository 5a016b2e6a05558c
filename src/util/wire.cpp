#include "util/wire.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

#include "util/contracts.hpp"

namespace gb {

std::string format_double(double value) {
    std::array<char, 32> buffer{};
    const auto [ptr, ec] =
        std::to_chars(buffer.data(), buffer.data() + buffer.size(), value);
    GB_ENSURES(ec == std::errc{});
    return std::string(buffer.data(), ptr);
}

std::string format_hex(std::uint64_t value) {
    std::string text(16, '0');
    for (auto digit = text.rbegin(); digit != text.rend(); ++digit) {
        *digit = "0123456789abcdef"[value & 0xf];
        value >>= 4;
    }
    return text;
}

template <typename Int>
bool parse_int(std::string_view text, Int& out, int base) {
    Int value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value, base);
    if (ec != std::errc{} || ptr != end) {
        return false;
    }
    out = value;
    return true;
}

template bool parse_int(std::string_view, short&, int);
template bool parse_int(std::string_view, unsigned short&, int);
template bool parse_int(std::string_view, int&, int);
template bool parse_int(std::string_view, unsigned&, int);
template bool parse_int(std::string_view, long&, int);
template bool parse_int(std::string_view, unsigned long&, int);
template bool parse_int(std::string_view, long long&, int);
template bool parse_int(std::string_view, unsigned long long&, int);

bool parse_double(std::string_view text, double& out) {
    double value = 0.0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end || !std::isfinite(value)) {
        return false;
    }
    out = value;
    return true;
}

std::optional<long long> parse_integer(std::string_view text) {
    long long value = 0;
    return parse_int(text, value) ? std::optional(value) : std::nullopt;
}

std::optional<double> parse_number(std::string_view text) {
    double value = 0.0;
    return parse_double(text, value) ? std::optional(value) : std::nullopt;
}

std::string json_escape(std::string_view text) {
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                constexpr char hex[] = "0123456789abcdef";
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::vector<std::string_view> split_fields(std::string_view line) {
    std::vector<std::string_view> tokens;
    std::size_t pos = 0;
    while (pos < line.size()) {
        const std::size_t space = line.find(' ', pos);
        const std::size_t end =
            space == std::string_view::npos ? line.size() : space;
        if (end > pos) {
            tokens.push_back(line.substr(pos, end - pos));
        }
        pos = end + 1;
    }
    return tokens;
}

bool field_value(const std::vector<std::string_view>& tokens,
                 std::string_view key, std::string_view& value) {
    for (const std::string_view token : tokens) {
        if (token.size() > key.size() && token[key.size()] == '=' &&
            token.starts_with(key)) {
            value = token.substr(key.size() + 1);
            return true;
        }
    }
    return false;
}

std::optional<std::string> read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
        return std::nullopt;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) {
        return std::nullopt;
    }
    return std::move(buffer).str();
}

bool parse_trigger_spec(
    std::string_view spec, const trigger_grammar& grammar,
    const std::function<bool(std::string_view)>& known_site,
    const std::function<void(const trigger_token&)>& add,
    std::string& error) {
    const std::string kind(grammar.kind);
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::size_t end =
            comma == std::string_view::npos ? spec.size() : comma;
        const std::string_view text = spec.substr(pos, end - pos);
        pos = end + 1;
        if (text.empty()) {
            if (comma == std::string_view::npos) {
                break;
            }
            error = "empty " + kind + " trigger in spec '" +
                    std::string(spec) + "'";
            return false;
        }
        const std::string quoted =
            kind + " trigger '" + std::string(text) + "'";
        const std::size_t at_sep = text.find('@');
        if (at_sep == std::string_view::npos || at_sep == 0) {
            error = quoted + " wants site@at[/" + std::string(grammar.param) +
                    "]";
            return false;
        }
        trigger_token token;
        token.site = text.substr(0, at_sep);
        if (!known_site(token.site)) {
            error = quoted + ": unknown " + kind + " site '" +
                    std::string(token.site) + "'";
            return false;
        }
        std::string_view numbers = text.substr(at_sep + 1);
        std::string_view param_text;
        const std::size_t slash = numbers.find('/');
        if (slash != std::string_view::npos) {
            param_text = numbers.substr(slash + 1);
            numbers = numbers.substr(0, slash);
        }
        if (!parse_int(numbers, token.at) || token.at == 0) {
            error = quoted + " wants a positive integer after '@'";
            return false;
        }
        if (!param_text.empty()) {
            std::uint64_t param = 0;
            if (!parse_int(param_text, param)) {
                error = quoted + " wants " + std::string(grammar.param_noun) +
                        " after '/'";
                return false;
            }
            token.param = param;
        }
        add(token);
        if (comma == std::string_view::npos) {
            break;
        }
    }
    return true;
}

} // namespace gb
