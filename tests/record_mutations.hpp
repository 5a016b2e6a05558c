// Strictness corpora: from one line a writer produced, the lines no writer
// produces.  A parser must reject every one of them.  record_mutations
// serves the journal record codec (util/wire.hpp), json_mutations the
// status snapshot (harness/status.hpp).
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
#include <functional>
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

/// The corpus of a one-line JSON document with no whitespace: for each
/// member of each object, the member dropped, duplicated, swapped with
/// its next sibling and preceded by an unknown `"foo":1`; each number
/// given a leading zero, and an integer a trailing ".0" or a decimal a
/// trailing "0"; and the document with no trailing newline, with a space
/// after its first colon, and with a second newline.
inline std::vector<record_mutation> json_mutations(std::string_view document) {
    struct member {
        std::size_t begin; ///< opening quote of the key
        std::size_t value; ///< first byte of the value
        std::size_t end;   ///< one past the value
    };
    std::vector<std::vector<member>> objects;
    std::vector<std::pair<std::size_t, std::size_t>> numbers;
    // The end of the value at `pos`, recording objects and numbers inside.
    std::function<std::size_t(std::size_t)> scan = [&](std::size_t pos) {
        const char open = document[pos];
        if (open == '"') {
            for (++pos; document[pos] != '"';) {
                pos += document[pos] == '\\' ? 2 : 1;
            }
            return pos + 1;
        }
        if (open != '{' && open != '[') {
            const std::size_t end = document.find_first_of(",]}", pos);
            if (open == '-' || std::isdigit(open) != 0) {
                numbers.emplace_back(pos, end);
            }
            return end;
        }
        std::vector<member> members;
        for (++pos; document[pos] != (open == '{' ? '}' : ']');) {
            pos += document[pos] == ',' ? 1 : 0;
            if (open == '[') {
                pos = scan(pos);
                continue;
            }
            const std::size_t begin = pos;
            const std::size_t value = scan(pos) + 1;
            pos = scan(value);
            members.push_back({begin, value, pos});
        }
        if (open == '{') {
            objects.push_back(std::move(members));
        }
        return pos + 1;
    };
    scan(0);

    const std::string line(document);
    std::vector<record_mutation> out;
    const auto add = [&](std::string what, std::size_t at, std::size_t cut,
                         std::string_view insert) {
        std::string mutated = line;
        mutated.replace(at, cut, insert);
        out.push_back({std::move(what), std::move(mutated)});
    };
    const auto text = [&](std::size_t begin, std::size_t end) {
        return line.substr(begin, end - begin);
    };
    for (const std::vector<member>& members : objects) {
        for (std::size_t i = 0; i < members.size(); ++i) {
            const member& m = members[i];
            const std::string key = text(m.begin, m.value - 1);
            const std::string whole = text(m.begin, m.end);
            // Each member leaves with the comma that joins it.
            const std::size_t cut_begin =
                i + 1 == members.size() && i > 0 ? members[i - 1].end
                                                 : m.begin;
            const std::size_t cut_end =
                i + 1 < members.size() ? members[i + 1].begin : m.end;
            add("dropped " + key, cut_begin, cut_end - cut_begin, "");
            add("duplicated " + key, m.begin, 0, whole + ",");
            add("\"foo\":1 before " + key, m.begin, 0, "\"foo\":1,");
            if (i + 1 < members.size()) {
                const member& next = members[i + 1];
                add("swapped " + key + " and " +
                        text(next.begin, next.value - 1),
                    m.begin, next.end - m.begin,
                    text(next.begin, next.end) + "," + whole);
            }
        }
    }
    for (const auto& [begin, end] : numbers) {
        const std::string number = text(begin, end);
        const std::size_t sign = number.starts_with('-') ? 1 : 0;
        add("respelt " + number + " at byte " + std::to_string(begin) +
                " with a leading zero",
            begin + sign, 0, "0");
        const bool integral = number.find_first_not_of("-0123456789") ==
                              std::string::npos;
        add("respelt " + number + " at byte " + std::to_string(begin) +
                (integral ? " as a decimal" : " with a trailing zero"),
            end, 0, integral ? ".0" : "0");
    }
    const std::size_t colon = line.find(':');
    add("no trailing newline", line.size() - 1, 1, "");
    add("a space after the first colon", colon + 1, 0, " ");
    add("a second newline", line.size(), 0, "\n");
    return out;
}

} // namespace gb::test
