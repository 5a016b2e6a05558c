// The strictness corpus of the journal record codec (util/wire.hpp): from
// one line a writer produced, the lines no writer produces.  A record
// parser must reject every one of them.
//
// A line is an optional kind word (a leading token without '=') and
// space-separated `key=value` fields.  The corpus holds each field
// dropped, duplicated, swapped with its neighbour and preceded by an
// unknown `foo=1` (plus one appended), and each value spelt another way
// the number parsers would still read: a leading zero, a trailing ".0" or
// "0" after the decimal point, a 16-digit hex value cut to 15 digits or
// upper-cased.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace gb::test {

struct record_mutation {
    std::string what; ///< how the line was changed, for the failure message
    std::string line;
};

inline std::vector<record_mutation> record_mutations(std::string_view line) {
    std::vector<std::string> tokens;
    for (std::size_t pos = 0; pos <= line.size();) {
        const std::size_t end = std::min(line.find(' ', pos), line.size());
        tokens.emplace_back(line.substr(pos, end - pos));
        pos = end + 1;
    }
    const std::size_t first =
        tokens.front().find('=') == std::string::npos ? 1 : 0;
    const auto join = [](const std::vector<std::string>& parts) {
        std::string joined;
        for (const std::string& part : parts) {
            joined += joined.empty() ? "" : " ";
            joined += part;
        }
        return joined;
    };

    std::vector<record_mutation> out;
    const auto add = [&](std::string what, std::vector<std::string> parts) {
        out.push_back({std::move(what), join(parts)});
    };
    for (std::size_t i = first; i < tokens.size(); ++i) {
        const std::string& field = tokens[i];
        std::vector<std::string> parts = tokens;
        parts.erase(parts.begin() + static_cast<std::ptrdiff_t>(i));
        add("dropped " + field, parts);
        parts = tokens;
        parts.insert(parts.begin() + static_cast<std::ptrdiff_t>(i), field);
        add("duplicated " + field, parts);
        parts = tokens;
        parts.insert(parts.begin() + static_cast<std::ptrdiff_t>(i), "foo=1");
        add("foo=1 before " + field, parts);
        if (i + 1 < tokens.size()) {
            parts = tokens;
            std::swap(parts[i], parts[i + 1]);
            add("swapped " + field + " and " + tokens[i + 1], parts);
        }

        const std::size_t eq = field.find('=');
        const std::string key = field.substr(0, eq + 1);
        const std::string value = field.substr(eq + 1);
        const std::size_t sign = value.starts_with('-') ? 1 : 0;
        const std::string digits = value.substr(sign);
        const bool integral =
            !digits.empty() &&
            std::all_of(digits.begin(), digits.end(),
                        [](unsigned char c) { return std::isdigit(c); });
        const bool hex16 =
            value.size() == 16 &&
            std::all_of(value.begin(), value.end(),
                        [](unsigned char c) { return std::isxdigit(c); });
        const std::size_t point = digits.find('.');
        const bool decimal =
            point != std::string::npos && point > 0 &&
            digits.find_first_not_of("0123456789", point + 1) ==
                std::string::npos &&
            digits.find_first_not_of("0123456789") == point;
        std::vector<std::string> respellings;
        if (integral) {
            respellings.push_back(value.substr(0, sign) + "0" + digits);
            respellings.push_back(value + ".0");
        } else if (decimal || hex16 ||
                   (!digits.empty() && std::isdigit(digits.front()) != 0 &&
                    digits.find_first_not_of("0123456789+:") ==
                        std::string::npos)) {
            // A decimal, a hex value or an integer list: its first number
            // gets a leading zero.
            respellings.push_back(value.substr(0, sign) + "0" + digits);
        }
        if (decimal) {
            respellings.push_back(value + "0");
        }
        if (hex16) {
            respellings.push_back(value.substr(1));
            std::string upper = value;
            std::transform(upper.begin(), upper.end(), upper.begin(),
                           [](unsigned char c) {
                               return static_cast<char>(std::toupper(c));
                           });
            if (upper != value) {
                respellings.push_back(upper);
            }
        }
        for (const std::string& respelt : respellings) {
            parts = tokens;
            parts[i] = key + respelt;
            add("respelt " + field + " as " + parts[i], parts);
        }
    }
    std::vector<std::string> parts = tokens;
    parts.emplace_back("foo=1");
    add("foo=1 appended", parts);
    return out;
}

} // namespace gb::test
