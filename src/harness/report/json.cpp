#include "harness/report/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

namespace gb::report {

const json_value* json_value::find(std::string_view key) const {
    if (type != kind::object) {
        return nullptr;
    }
    for (const auto& [name, value] : members) {
        if (name == key) {
            return &value;
        }
    }
    return nullptr;
}

std::optional<std::uint64_t> json_value::as_u64() const {
    if (type != kind::number) {
        return std::nullopt;
    }
    if (integral) {
        if (negative && integer != 0) {
            return std::nullopt;
        }
        return integer;
    }
    if (!std::isfinite(number) || number < 0.0 ||
        number != std::floor(number) || number > 1.8446744073709552e19) {
        return std::nullopt;
    }
    return static_cast<std::uint64_t>(number);
}

std::optional<double> json_value::as_number() const {
    if (type != kind::number) {
        return std::nullopt;
    }
    return number;
}

std::optional<std::string_view> json_value::as_string() const {
    if (type != kind::string) {
        return std::nullopt;
    }
    return std::string_view(text);
}

namespace {

/// Anything deeper than this is treated as corrupt, not recursed into --
/// the artifacts we read nest three or four levels, and a pathological
/// input must not be able to overflow the stack.
constexpr int max_depth = 64;

class parser {
public:
    explicit parser(std::string_view input) : input_(input) {}

    json_parse_result run() {
        json_parse_result result;
        json_value value;
        bool parsed = parse_value(value, 0);
        if (parsed) {
            skip_whitespace();
            parsed = position_ == input_.size() ||
                     fail("trailing bytes after the document");
        }
        if (!parsed) {
            result.error = error_;
            result.error_offset = error_offset_;
            return result;
        }
        result.value = std::move(value);
        return result;
    }

private:
    bool fail(std::string_view reason) {
        if (error_.empty()) {
            error_offset_ = position_;
            error_ = "byte " + std::to_string(position_) + ": " +
                     std::string(reason);
        }
        return false;
    }

    void skip_whitespace() {
        while (position_ < input_.size()) {
            const char c = input_[position_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
                break;
            }
            ++position_;
        }
    }

    [[nodiscard]] bool at_end() const { return position_ >= input_.size(); }

    bool expect(char wanted) {
        if (at_end() || input_[position_] != wanted) {
            return fail(std::string("expected '") + wanted + "'");
        }
        ++position_;
        return true;
    }

    bool consume_literal(std::string_view literal) {
        if (input_.substr(position_, literal.size()) != literal) {
            return fail("unrecognized literal");
        }
        position_ += literal.size();
        return true;
    }

    bool parse_value(json_value& out, int depth) {
        if (depth > max_depth) {
            return fail("nesting deeper than the supported maximum");
        }
        skip_whitespace();
        if (at_end()) {
            return fail("unexpected end of input");
        }
        const char c = input_[position_];
        switch (c) {
        case '{': return parse_object(out, depth);
        case '[': return parse_array(out, depth);
        case '"':
            out.type = json_value::kind::string;
            return parse_string(out.text);
        case 't':
            out.type = json_value::kind::boolean;
            out.boolean = true;
            return consume_literal("true");
        case 'f':
            out.type = json_value::kind::boolean;
            out.boolean = false;
            return consume_literal("false");
        case 'n':
            out.type = json_value::kind::null;
            return consume_literal("null");
        default: return parse_number(out);
        }
    }

    bool parse_object(json_value& out, int depth) {
        out.type = json_value::kind::object;
        if (!expect('{')) {
            return false;
        }
        skip_whitespace();
        if (!at_end() && input_[position_] == '}') {
            ++position_;
            return true;
        }
        while (true) {
            skip_whitespace();
            std::string key;
            if (!parse_string(key)) {
                return false;
            }
            skip_whitespace();
            if (!expect(':')) {
                return false;
            }
            json_value value;
            if (!parse_value(value, depth + 1)) {
                return false;
            }
            out.members.emplace_back(std::move(key), std::move(value));
            skip_whitespace();
            if (at_end()) {
                return fail("unterminated object");
            }
            if (input_[position_] == ',') {
                ++position_;
                continue;
            }
            return expect('}');
        }
    }

    bool parse_array(json_value& out, int depth) {
        out.type = json_value::kind::array;
        if (!expect('[')) {
            return false;
        }
        skip_whitespace();
        if (!at_end() && input_[position_] == ']') {
            ++position_;
            return true;
        }
        while (true) {
            json_value element;
            if (!parse_value(element, depth + 1)) {
                return false;
            }
            out.items.push_back(std::move(element));
            skip_whitespace();
            if (at_end()) {
                return fail("unterminated array");
            }
            if (input_[position_] == ',') {
                ++position_;
                continue;
            }
            return expect(']');
        }
    }

    bool parse_string(std::string& out) {
        if (at_end() || input_[position_] != '"') {
            return fail("expected a string");
        }
        ++position_;
        out.clear();
        while (true) {
            if (at_end()) {
                return fail("unterminated string");
            }
            const char c = input_[position_++];
            if (c == '"') {
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                --position_;
                return fail("raw control byte inside a string");
            }
            if (c != '\\') {
                out += c;
                continue;
            }
            if (at_end()) {
                return fail("dangling escape at end of input");
            }
            const char escape = input_[position_++];
            switch (escape) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (!append_unicode_escape(out)) {
                    return false;
                }
                break;
            }
            default:
                position_ -= 1;
                return fail("unknown string escape");
            }
        }
    }

    bool append_unicode_escape(std::string& out) {
        std::uint32_t code = 0;
        if (!parse_hex4(code)) {
            return false;
        }
        // Surrogate pairs: a high surrogate must be followed by an escaped
        // low surrogate; anything else is corrupt input.
        if (code >= 0xd800 && code <= 0xdbff) {
            if (input_.substr(position_, 2) != "\\u") {
                return fail("high surrogate without a following pair");
            }
            position_ += 2;
            std::uint32_t low = 0;
            if (!parse_hex4(low)) {
                return false;
            }
            if (low < 0xdc00 || low > 0xdfff) {
                return fail("invalid low surrogate");
            }
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
        } else if (code >= 0xdc00 && code <= 0xdfff) {
            return fail("unpaired low surrogate");
        }
        // UTF-8 encode.
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
        } else if (code < 0x10000) {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
        }
        return true;
    }

    bool parse_hex4(std::uint32_t& out) {
        if (position_ + 4 > input_.size()) {
            return fail("truncated \\u escape");
        }
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = input_[position_ + static_cast<std::size_t>(i)];
            std::uint32_t digit = 0;
            if (c >= '0' && c <= '9') {
                digit = static_cast<std::uint32_t>(c - '0');
            } else if (c >= 'a' && c <= 'f') {
                digit = static_cast<std::uint32_t>(c - 'a') + 10;
            } else if (c >= 'A' && c <= 'F') {
                digit = static_cast<std::uint32_t>(c - 'A') + 10;
            } else {
                return fail("non-hex digit in \\u escape");
            }
            out = (out << 4) | digit;
        }
        position_ += 4;
        return true;
    }

    bool parse_number(json_value& out) {
        const std::size_t start = position_;
        if (!at_end() && input_[position_] == '-') {
            ++position_;
        }
        const auto digits = [&] {
            std::size_t n = 0;
            while (!at_end() &&
                   std::isdigit(static_cast<unsigned char>(
                       input_[position_]))) {
                ++position_;
                ++n;
            }
            return n;
        };
        if (digits() == 0) {
            position_ = start;
            return fail("expected a value");
        }
        if (!at_end() && input_[position_] == '.') {
            ++position_;
            if (digits() == 0) {
                return fail("digits required after decimal point");
            }
        }
        if (!at_end() &&
            (input_[position_] == 'e' || input_[position_] == 'E')) {
            ++position_;
            if (!at_end() &&
                (input_[position_] == '+' || input_[position_] == '-')) {
                ++position_;
            }
            if (digits() == 0) {
                return fail("digits required in exponent");
            }
        }
        const std::string_view token =
            input_.substr(start, position_ - start);
        double parsed = 0.0;
        const auto [ptr, ec] =
            std::from_chars(token.data(), token.data() + token.size(),
                            parsed);
        if (ec != std::errc{} || ptr != token.data() + token.size() ||
            !std::isfinite(parsed)) {
            position_ = start;
            return fail("number out of range");
        }
        out.type = json_value::kind::number;
        out.number = parsed;
        // Plain-integer tokens additionally keep their exact 64-bit value:
        // the double alone rounds above 2^53 and counters need every bit.
        if (token.find('.') == std::string_view::npos &&
            token.find('e') == std::string_view::npos &&
            token.find('E') == std::string_view::npos) {
            const bool minus = token.front() == '-';
            const std::string_view magnitude =
                minus ? token.substr(1) : token;
            std::uint64_t exact = 0;
            const auto [iptr, iec] = std::from_chars(
                magnitude.data(), magnitude.data() + magnitude.size(),
                exact);
            if (iec == std::errc{} &&
                iptr == magnitude.data() + magnitude.size()) {
                out.integral = true;
                out.negative = minus;
                out.integer = exact;
            }
        }
        return true;
    }

    std::string_view input_;
    std::size_t position_ = 0;
    std::string error_;
    std::size_t error_offset_ = 0;
};

} // namespace

json_parse_result parse_json(std::string_view input) {
    return parser(input).run();
}

} // namespace gb::report
