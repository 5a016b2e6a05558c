// The JSON codec every artifact shares: the status snapshot, the Chrome
// trace, the metrics document and the timeline.  Like the record codec in
// wire.hpp, a format declares each JSON object once, as the fields its
// struct visits in order, and one walk of that declaration renders the
// bytes and reads them back:
//
//   template <>
//   struct json_object<histogram_snapshot> {
//       static constexpr json_layout layout = json_spaced;
//       static void fields(auto& field, auto& histogram) {
//           field("bounds", histogram.bounds);
//           field("counts", histogram.counts);
//           ...
//       }
//   };
//
// A field is a bool, an integer, a double (shortest round-trip form), a
// string, a wire.hpp adaptor (its text as a JSON string), a vector (an
// array), a pair (a two-element array), an optional (the member is left
// out when empty), another declared object, or one of the adaptors below:
// json_items (an array in a layout), json_named (an object with one member
// per element) and json_verbatim (fixed bytes).  Each object and array
// carries its own whitespace, a json_layout, so compact documents and
// one-member-per-line ones walk the same code.
//
// A text reads only if write_json renders what was read back to exactly
// that text: no whitespace, spelling, order, escape or member that the
// writer would not produce gets through.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/wire.hpp"

namespace gb {

/// The whitespace of one JSON object or array.
struct json_layout {
    std::string_view brackets = "{}"; ///< "[]": members are positional
    std::string_view colon = ":";     ///< between a key and its value
    std::string_view comma = ",";     ///< between members
    std::string_view indent = "";     ///< before each member
    std::string_view outdent = "";    ///< before the close, after members
    std::string_view empty = "";      ///< between the brackets of none
};

/// `{"a":1,"b":2}` and `[1,2]`.
inline constexpr json_layout json_compact{};
inline constexpr json_layout json_tuple{.brackets = "[]"};
/// `{"a": 1, "b": 2}`.
inline constexpr json_layout json_spaced{.colon = ": ", .comma = ", "};
/// A document's top level and its sections: one member per line, at an
/// indent of two and of four spaces.
inline constexpr json_layout json_document{
    .colon = ": ", .indent = "\n  ", .outdent = "\n"};
inline constexpr json_layout json_section{
    .colon = ": ", .indent = "\n    ", .outdent = "\n  "};

/// The declaration of one JSON object: specialize with
///   static void fields(auto& field, auto& value);
/// and, for any layout but json_compact, `static constexpr json_layout
/// layout`.
template <typename T>
struct json_object;

template <typename First, typename Second>
struct json_object<std::pair<First, Second>> {
    static constexpr json_layout layout = json_tuple;
    static void fields(auto& field, auto& pair) {
        field("", pair.first);
        field("", pair.second);
    }
};

/// A vector as an array in `layout`.
template <typename Vector>
struct json_items {
    Vector& items;
    const json_layout& layout;
};

/// A vector as an object with one member per element: a pair's `first`,
/// or else the element's `name`, is the key, and the pair's `second`, or
/// else the element, the value.  With `ascending`, keys strictly increase.
template <typename Vector>
struct json_named {
    Vector& items;
    const json_layout& layout;
    bool ascending = true;
};

/// Fixed bytes: a member whose value never varies.
struct json_verbatim {
    std::string_view bytes;
};

namespace json_detail {

template <typename T, template <typename...> typename Of>
inline constexpr bool is_a = false;
template <template <typename...> typename Of, typename... Args>
inline constexpr bool is_a<Of<Args...>, Of> = true;

template <typename T>
concept wire_adaptor = requires(const T& adaptor, std::string& out) {
    adaptor.write(out);
};

template <typename T>
constexpr const json_layout& layout_of() {
    if constexpr (requires { json_object<T>::layout; }) {
        return json_object<T>::layout;
    } else {
        return json_compact;
    }
}

template <typename Element>
auto& key_of(Element& element) {
    if constexpr (is_a<std::remove_const_t<Element>, std::pair>) {
        return element.first;
    } else {
        return element.name;
    }
}

template <typename Element>
auto& value_of(Element& element) {
    if constexpr (is_a<std::remove_const_t<Element>, std::pair>) {
        return element.second;
    } else {
        return element;
    }
}

inline std::size_t common_prefix(std::string_view a, std::string_view b) {
    const std::size_t n = std::min(a.size(), b.size());
    return static_cast<std::size_t>(
        std::mismatch(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(n),
                      b.begin())
            .first -
        a.begin());
}

/// The text a string literal holds, decoding what json_escape writes and
/// stopping at the first escape it does not.
inline std::string unescape(std::string_view raw) {
    std::string out;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        if (raw[i] != '\\') {
            out += raw[i];
            continue;
        }
        const std::size_t named =
            i + 1 < raw.size() ? std::string_view("\"\\nrt").find(raw[i + 1])
                               : std::string_view::npos;
        if (named != std::string_view::npos) {
            out += "\"\\\n\r\t"[named];
            ++i;
            continue;
        }
        unsigned code = 0;
        if (i + 6 > raw.size() || raw[i + 1] != 'u' ||
            !parse_int(raw.substr(i + 2, 4), code, 16) || code > 0xff) {
            break;
        }
        out += static_cast<char>(code);
        i += 5;
    }
    return out;
}

/// One walk of the declarations, in either direction.  Writing appends
/// each byte to `out`.  Reading matches each byte against `text` at `pos`
/// and stops at the first that does not fit (`ok` false, `pos` on that
/// byte; a text that ends too soon stops at its end).  An array or object
/// member that does not read whole is dropped again.
template <bool Reading>
struct codec {
    std::string out;
    std::string_view text;
    std::size_t pos = 0;
    bool ok = true;

    [[nodiscard]] bool at(std::string_view bytes) const {
        return ok && text.substr(pos).starts_with(bytes);
    }

    void fail(std::size_t where) {
        ok = false;
        pos = where;
    }

    void punct(std::string_view bytes) {
        if constexpr (Reading) {
            if (!ok) {
                return;
            }
            const std::size_t same = common_prefix(text.substr(pos), bytes);
            if (same == bytes.size()) {
                pos += same;
            } else {
                fail(pos + same);
            }
        } else {
            out += bytes;
        }
    }

    /// The members of one object or array, in order.
    struct members {
        codec& c;
        const json_layout& layout;
        bool keyed = layout.brackets == "{}";
        bool first = true;

        template <typename T>
        void operator()(std::string_view key, T&& value) {
            if constexpr (!is_a<std::remove_cvref_t<T>, std::optional>) {
                next();
                if (keyed) {
                    c.punct("\"");
                    c.punct(key);
                    c.punct("\"");
                    c.punct(layout.colon);
                }
                c.value(value);
            } else if constexpr (Reading) {
                std::string opening(first ? "" : layout.comma);
                opening += layout.indent;
                opening += '"';
                opening += key;
                opening += '"';
                if (c.at(opening)) {
                    (*this)(key, value.emplace());
                }
            } else if (value) {
                (*this)(key, *value);
            }
        }

        /// The comma and indent before a member.
        void next() {
            c.punct(first ? std::string_view{} : layout.comma);
            c.punct(layout.indent);
            first = false;
        }

        /// Reading a sequence: true when its closing bytes come next, or
        /// the text ends within them.
        [[nodiscard]] bool closing() const {
            const auto fits = [](std::string_view rest,
                                 std::string_view bytes) {
                return common_prefix(rest, bytes) ==
                       std::min(rest.size(), bytes.size());
            };
            const std::string_view space = first ? layout.empty
                                                 : layout.outdent;
            const std::string_view rest = c.text.substr(c.pos);
            return fits(rest, space) &&
                   fits(rest.substr(std::min(space.size(), rest.size())),
                        layout.brackets.substr(1));
        }

        void close() {
            c.punct(first ? layout.empty : layout.outdent);
            c.punct(layout.brackets.substr(1));
        }
    };

    /// Each element of `items` through `walk(element)`.
    template <typename Vector, typename Walk>
    void sequence(Vector& items, const json_layout& layout, Walk walk) {
        punct(layout.brackets.substr(0, 1));
        members each{*this, layout};
        if constexpr (Reading) {
            while (ok && !each.closing()) {
                each.next();
                walk(items.emplace_back());
                if (!ok) {
                    items.pop_back();
                }
            }
        } else {
            for (auto& element : items) {
                each.next();
                walk(element);
            }
        }
        each.close();
    }

    template <typename T>
    void value(T& v) {
        using V = std::remove_const_t<T>;
        if (!ok) {
            return;
        }
        if constexpr (is_a<V, std::vector>) {
            json_items<T> items{v, json_tuple};
            value(items);
        } else if constexpr (is_a<V, json_items>) {
            sequence(v.items, v.layout, [&](auto& element) { value(element); });
        } else if constexpr (is_a<V, json_named>) {
            sequence(v.items, v.layout, [&](auto& element) {
                const std::size_t key_at = pos;
                value(key_of(element));
                if constexpr (Reading) {
                    const auto& items = v.items;
                    if (ok && v.ascending && items.size() > 1 &&
                        !(key_of(items[items.size() - 2]) <
                          key_of(element))) {
                        fail(key_at);
                    }
                }
                punct(v.layout.colon);
                value(value_of(element));
            });
        } else if constexpr (std::is_same_v<V, json_verbatim>) {
            punct(v.bytes);
        } else if constexpr (wire_adaptor<V>) {
            if constexpr (Reading) {
                const std::size_t begin = pos;
                std::string text_value;
                read_string(text_value);
                if (ok && !v.read(text_value)) {
                    fail(begin + 1);
                }
            } else {
                std::string text_value;
                v.write(text_value);
                value(text_value);
            }
        } else if constexpr (std::is_class_v<V> &&
                             !std::is_same_v<V, std::string>) {
            const json_layout& layout = layout_of<V>();
            punct(layout.brackets.substr(0, 1));
            members fields{*this, layout};
            json_object<V>::fields(fields, v);
            fields.close();
        } else if constexpr (Reading) {
            read_scalar(v);
        } else if constexpr (std::is_same_v<V, bool>) {
            out += v ? "true" : "false";
        } else if constexpr (std::is_integral_v<V>) {
            out += std::to_string(v);
        } else if constexpr (std::is_same_v<V, double>) {
            out += format_double(v);
        } else {
            out += '"';
            out += json_escape(v);
            out += '"';
        }
    }

    template <typename V>
    void read_scalar(V& v) {
        if constexpr (std::is_same_v<V, bool>) {
            v = at("true");
            punct(v ? "true" : "false");
        } else if constexpr (std::is_same_v<V, std::string>) {
            read_string(v);
        } else {
            read_number(v);
        }
    }

    /// A number reads only in the writer's spelling; one the text ends in
    /// may be cut short, so it stops at the end instead.
    template <typename V>
    void read_number(V& v) {
        const std::string_view chars = std::is_same_v<V, double>
                                           ? "-+.0123456789e"
                                           : "-0123456789";
        const std::size_t end =
            std::min(text.find_first_not_of(chars, pos), text.size());
        const std::string_view token = text.substr(pos, end - pos);
        V parsed{};
        std::string canonical;
        if constexpr (std::is_same_v<V, double>) {
            if (parse_double(token, parsed)) {
                canonical = format_double(parsed);
            }
        } else if (parse_int(token, parsed)) {
            canonical = std::to_string(parsed);
        }
        if (!canonical.empty()) {
            v = parsed;
        }
        if (!canonical.empty() && canonical == token) {
            pos = end;
        } else {
            fail(end == text.size() ? end
                                    : pos + common_prefix(token, canonical));
        }
    }

    /// A string literal reads only as json_escape spells its text.
    void read_string(std::string& v) {
        punct("\"");
        std::size_t close = pos;
        while (ok && close < text.size() && text[close] != '"') {
            close += text[close] == '\\' ? 2 : 1;
        }
        if (ok && close >= text.size()) {
            fail(text.size());
        }
        if (!ok) {
            return;
        }
        const std::string_view raw = text.substr(pos, close - pos);
        v = unescape(raw);
        const std::string canonical = json_escape(v);
        if (canonical != raw) {
            fail(pos + common_prefix(raw, canonical));
            return;
        }
        pos = close + 1;
    }
};

} // namespace json_detail

/// `value` as its JSON document: the declared rendering and a newline.
template <typename T>
[[nodiscard]] std::string write_json(const T& value) {
    json_detail::codec<false> writer;
    writer.value(value);
    writer.out += '\n';
    return std::move(writer.out);
}

/// How far a text got through a declaration.
struct json_read {
    /// The first byte that differs from the writer's rendering; the text's
    /// size when it only ended too soon (or is exact).
    std::size_t stop = 0;
    bool exact = false; ///< the text is write_json of what was read
};

/// Read `text` into `value` (default-constructed) along its declaration.
/// A text that ends too soon leaves `value` holding every array and object
/// member it read whole.
template <typename T>
[[nodiscard]] json_read read_json_into(std::string_view text, T& value) {
    json_detail::codec<true> reader{{}, text};
    reader.value(value);
    reader.punct("\n");
    if (reader.ok && reader.pos < text.size()) {
        reader.fail(reader.pos); // trailing bytes
    }
    if (!reader.ok) {
        return {reader.pos, false};
    }
    const std::string canonical = write_json(value);
    return {json_detail::common_prefix(text, canonical), canonical == text};
}

/// The diagnostic of a text that stops matching the `format` writer's
/// rendering at `byte`.
[[nodiscard]] inline std::string json_mismatch(std::string_view format,
                                               std::size_t byte) {
    std::string error(format);
    error += ": byte " + std::to_string(byte) + ": not what the ";
    error += format;
    error += " writer renders";
    return error;
}

/// The T `text` holds, if write_json renders it back to exactly `text`.
/// Otherwise nullopt, and `error` is json_mismatch of the first byte that
/// differs.
template <typename T>
[[nodiscard]] std::optional<T> read_json(std::string_view text,
                                         std::string_view format,
                                         std::string& error) {
    T value{};
    const json_read read = read_json_into(text, value);
    if (!read.exact) {
        error = json_mismatch(format, read.stop);
        return std::nullopt;
    }
    return value;
}

} // namespace gb
