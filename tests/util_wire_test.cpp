// The wire kernel's contracts: bit-exact number round trips, strict
// full-match parsing that rejects non-finite values, integer lists, the
// FNV-1a test vectors, the key=value record codec, whole-file reads and
// the trigger-spec grammar.
#include "util/wire.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "record_mutations.hpp"
#include "util/rng.hpp"

namespace gb {
namespace {

void expect_round_trip(double value) {
    double parsed = 0.0;
    ASSERT_TRUE(parse_double(format_double(value), parsed))
        << format_double(value);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed),
              std::bit_cast<std::uint64_t>(value))
        << format_double(value);
}

TEST(wire_test, doubles_round_trip_bit_exactly) {
    std::uint64_t state = 2018;
    int checked = 0;
    while (checked < 20000) {
        const double value = std::bit_cast<double>(splitmix64(state));
        if (!std::isfinite(value)) {
            continue;
        }
        expect_round_trip(value);
        ++checked;
    }
    expect_round_trip(0.0);
    expect_round_trip(-0.0);
    expect_round_trip(std::numeric_limits<double>::denorm_min());
    expect_round_trip(-std::numeric_limits<double>::denorm_min());
    expect_round_trip(DBL_MIN);
    expect_round_trip(DBL_MAX);
    expect_round_trip(-DBL_MAX);
}

TEST(wire_test, parse_double_rejects_partial_and_non_finite_text) {
    for (const char* text :
         {"", " 1", "1 ", "+1", "0x1", "1e999", "-1e999", "inf", "-inf",
          "nan", "-nan", "NaN", "1.5x", "--1"}) {
        double out = 42.0;
        EXPECT_FALSE(parse_double(text, out)) << '"' << text << '"';
        EXPECT_EQ(out, 42.0) << "failed parse assigned: " << text;
        EXPECT_EQ(parse_number(text), std::nullopt) << text;
    }
    double out = 0.0;
    EXPECT_TRUE(parse_double("-0.25", out));
    EXPECT_EQ(out, -0.25);
    EXPECT_TRUE(parse_double("1e3", out));
    EXPECT_EQ(out, 1000.0);
}

TEST(wire_test, parse_int_is_strict_and_range_checked) {
    for (const char* text : {"", " 1", "1 ", "+1", "0x1", "1.0", "1e3"}) {
        long long out = 7;
        EXPECT_FALSE(parse_int(std::string_view(text), out)) << text;
        EXPECT_EQ(out, 7);
    }
    std::uint64_t u64 = 0;
    EXPECT_TRUE(parse_int("18446744073709551615", u64));
    EXPECT_EQ(u64, std::numeric_limits<std::uint64_t>::max());
    EXPECT_FALSE(parse_int("18446744073709551616", u64));
    EXPECT_FALSE(parse_int("-1", u64));
    std::int64_t i64 = 0;
    EXPECT_TRUE(parse_int("-9223372036854775808", i64));
    EXPECT_EQ(i64, std::numeric_limits<std::int64_t>::min());
    EXPECT_FALSE(parse_int("9223372036854775808", i64));
    std::uint16_t u16 = 0;
    EXPECT_TRUE(parse_int("65535", u16));
    EXPECT_FALSE(parse_int("65536", u16));
    int i = 0;
    EXPECT_FALSE(parse_int("2147483648", i));
    EXPECT_EQ(parse_integer("9223372036854775808"), std::nullopt);
    EXPECT_EQ(parse_integer("-17"), -17);
}

TEST(wire_test, integer_lists_round_trip_and_reject_empty_elements) {
    EXPECT_EQ(format_list(std::vector<int>{0, 1, 3}, '+'), "0+1+3");
    EXPECT_EQ(format_list(std::vector<int>{}, '+'), "");
    std::vector<std::uint32_t> rigs;
    ASSERT_TRUE(parse_list("4:0:17", ':', rigs));
    EXPECT_EQ(rigs, (std::vector<std::uint32_t>{4, 0, 17}));
    for (const char* text : {"", ":", "1:", ":1", "1::2", "1:x", "1+2"}) {
        std::vector<std::uint32_t> out{9};
        EXPECT_FALSE(parse_list(text, ':', out)) << text;
        EXPECT_EQ(out, std::vector<std::uint32_t>{9}) << text;
    }
}

TEST(wire_test, hex_is_sixteen_lowercase_digits_and_parses_back) {
    EXPECT_EQ(format_hex(0), "0000000000000000");
    EXPECT_EQ(format_hex(0xabcULL), "0000000000000abc");
    EXPECT_EQ(format_hex(0xdeadbeef12345678ULL), "deadbeef12345678");
    EXPECT_EQ(format_hex(~0ULL), "ffffffffffffffff");
    std::uint64_t state = 7;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t value = splitmix64(state);
        std::uint64_t parsed = 0;
        ASSERT_TRUE(parse_int(format_hex(value), parsed, 16));
        EXPECT_EQ(parsed, value);
    }
}

TEST(wire_test, fnv1a_matches_the_published_test_vectors) {
    EXPECT_EQ(fnv1a_bytes(fnv1a_basis, ""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a_bytes(fnv1a_basis, "a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a_bytes(fnv1a_basis, "foobar"), 0x85944171f73967e8ULL);
    // A word folds as its 8 little-endian bytes.
    const std::uint64_t word = 0x0807060504030201ULL;
    EXPECT_EQ(fnv1a_word(fnv1a_basis, word),
              fnv1a_bytes(fnv1a_basis,
                          std::string_view("\x01\x02\x03\x04\x05\x06\x07\x08",
                                           8)));
    static_assert(fnv1a_bytes(fnv1a_basis, "a") == 0xaf63dc4c8601ec8cULL);
}

// --- the record codec ----------------------------------------------------

enum class shade : std::uint8_t { light, dark };

std::string_view to_string(shade tone) {
    return tone == shade::light ? "light" : "dark";
}

/// One field of every kind the codec reads.
struct sample_record {
    std::string name;
    millivolts level{0.0};
    double ratio = 0.0;
    std::int64_t offset = 0;
    std::uint64_t id = 0;
    std::vector<std::uint32_t> rigs;
    std::array<int, 3> banks{};
    shade tone = shade::light;
    bool on = false;
};

struct sample_format {
    static constexpr std::string_view kind = "smp";
    static void fields(auto& field, auto& record) {
        field("name", record.name);
        field("level", record.level);
        field("ratio", record.ratio);
        field("offset", record.offset);
        field("id", as_hex(record.id));
        field("rigs", joined(record.rigs, ':'));
        field("banks", joined(record.banks, '+'));
        field("tone", named(record.tone, 2));
        field("on", flag(record.on, "no", "yes"));
    }
};

/// A format without a kind word: its first field opens the payload.
struct bare_format {
    static constexpr std::string_view kind = "";
    static void fields(auto& field, auto& record) {
        field("n", record.offset);
        field("id", as_hex(record.id));
    }
};

sample_record make_sample() {
    sample_record record;
    record.name = "milc";
    record.level = millivolts{900.5};
    record.ratio = 0.1;
    record.offset = -15;
    record.id = 0x4ce8fULL;
    record.rigs = {4, 0, 17};
    record.banks = {1, 20, 3};
    record.tone = shade::dark;
    record.on = true;
    return record;
}

constexpr std::string_view sample_payload =
    "smp name=milc level=900.5 ratio=0.1 offset=-15 id=000000000004ce8f "
    "rigs=4:0:17 banks=1+20+3 tone=dark on=yes";

TEST(wire_test, records_render_in_declared_order_and_parse_back_exactly) {
    EXPECT_EQ(render_record<sample_format>(make_sample()), sample_payload);
    sample_record parsed;
    ASSERT_TRUE(parse_record<sample_format>(sample_payload, parsed));
    EXPECT_EQ(parsed.name, "milc");
    EXPECT_EQ(parsed.level.value, 900.5);
    EXPECT_EQ(parsed.ratio, 0.1);
    EXPECT_EQ(parsed.offset, -15);
    EXPECT_EQ(parsed.id, 0x4ce8fULL);
    EXPECT_EQ(parsed.rigs, (std::vector<std::uint32_t>{4, 0, 17}));
    EXPECT_EQ(parsed.banks, (std::array<int, 3>{1, 20, 3}));
    EXPECT_EQ(parsed.tone, shade::dark);
    EXPECT_TRUE(parsed.on);
    EXPECT_EQ(render_record<sample_format>(parsed), sample_payload);

    sample_record bare;
    bare.offset = 7;
    EXPECT_EQ(render_record<bare_format>(bare), "n=7 id=0000000000000000");
    ASSERT_TRUE(parse_record<bare_format>("n=7 id=0000000000000000", bare));
    EXPECT_FALSE(parse_record<bare_format>(" n=7 id=0000000000000000", bare));
}

TEST(wire_test, records_parse_only_what_render_writes) {
    // Each line of the strictness corpus, and each invalid value, leaves
    // the target record untouched.
    std::vector<std::string> rejected;
    for (const test::record_mutation& mutation :
         test::record_mutations(sample_payload)) {
        rejected.push_back(mutation.line);
    }
    ASSERT_GE(rejected.size(), 40U);
    const std::string payload(sample_payload);
    const auto with = [&](std::string_view from, std::string_view to) {
        std::string line = payload;
        line.replace(line.find(from), from.size(), to);
        return line;
    };
    for (const std::string& line :
         {std::string(), std::string("smp"), payload + " ",
          "smpx" + payload.substr(3), payload.substr(4), with(" ", "  "),
          with("name=milc", "name="), with("ratio=0.1", "ratio=nan"),
          with("ratio=0.1", "ratio=inf"), with("banks=1+20+3", "banks=1+20"),
          with("banks=1+20+3", "banks=1+20+3+4"),
          with("rigs=4:0:17", "rigs="), with("tone=dark", "tone=grey"),
          with("on=yes", "on=1"), with("offset=-15", "offset=+15"),
          with("id=000000000004ce8f", "id=0x00000000004ce8f")}) {
        rejected.push_back(line);
    }
    for (const std::string& line : rejected) {
        sample_record record;
        record.name = "untouched";
        EXPECT_FALSE(parse_record<sample_format>(line, record)) << line;
        EXPECT_EQ(record.name, "untouched") << line;
    }
}

TEST(wire_test, read_record_reports_how_far_a_payload_got) {
    sample_record record;
    record_read read = read_record<sample_format>(sample_payload, record);
    EXPECT_EQ(read.fields, 9U);
    EXPECT_TRUE(read.exact);
    // Every field reads, but "900.50" is not how 900.5 is written.
    std::string respelt(sample_payload);
    respelt.replace(respelt.find("900.5"), 5, "900.50");
    read = read_record<sample_format>(respelt, record);
    EXPECT_EQ(read.fields, 9U);
    EXPECT_FALSE(read.exact);
    // The first three fields, then a cut.
    read = read_record<sample_format>(sample_payload.substr(0, 35), record);
    EXPECT_EQ(read.fields, 3U);
    EXPECT_FALSE(read.exact);
    read = read_record<sample_format>("tline name=milc", record);
    EXPECT_EQ(read.fields, 0U);
}

TEST(wire_test, random_byte_flips_parse_only_as_their_own_rendering) {
    // Whatever a flipped payload parses as renders back to the payload's
    // exact bytes: the codec rejects or round-trips, never reinterprets.
    rng noise(20180406);
    std::size_t parsed = 0;
    for (int trial = 0; trial < 4000; ++trial) {
        std::string line(sample_payload);
        const int flips = 1 + static_cast<int>(noise.uniform_index(2));
        for (int f = 0; f < flips; ++f) {
            const std::size_t at = noise.uniform_index(line.size());
            line[at] = static_cast<char>(
                line[at] ^ static_cast<char>(1 + noise.uniform_index(255)));
        }
        sample_record record;
        if (parse_record<sample_format>(line, record)) {
            ++parsed;
            EXPECT_EQ(render_record<sample_format>(record), line);
        }
    }
    // Flips inside a name or a value's digits still parse, as themselves.
    EXPECT_GT(parsed, 0U);
}

TEST(wire_test, enums_read_back_by_name_only) {
    shade tone = shade::light;
    ASSERT_TRUE(enum_from_name("dark", 2, tone));
    EXPECT_EQ(tone, shade::dark);
    EXPECT_FALSE(enum_from_name("Dark", 2, tone));
    EXPECT_FALSE(enum_from_name("dark", 1, tone)); // outside the first 1
    EXPECT_EQ(tone, shade::dark);
}

TEST(wire_test, json_escape_names_the_short_escapes_and_hexes_the_rest) {
    EXPECT_EQ(json_escape("plain"), "plain");
    EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(json_escape("\n\r\t"), "\\n\\r\\t");
    EXPECT_EQ(json_escape(std::string_view("\x00\x01\x1f", 3)),
              "\\u0000\\u0001\\u001f");
    EXPECT_EQ(json_escape("\x7f"), "\x7f");
}

TEST(wire_test, read_file_distinguishes_missing_from_empty) {
    EXPECT_EQ(read_file(::testing::TempDir() + "wire_no_such_file"),
              std::nullopt);
    const std::string path = ::testing::TempDir() + "wire_read_file.bin";
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fclose(file);
    EXPECT_EQ(read_file(path), std::string());
    file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    const std::string bytes("a\0b\r\n", 5);
    std::fwrite(bytes.data(), 1, bytes.size(), file);
    std::fclose(file);
    EXPECT_EQ(read_file(path), bytes);
}

struct parsed_spec {
    bool ok = false;
    std::string error;
    std::vector<std::string> triggers; ///< "site@at/param" ("-" = absent)
};

parsed_spec parse_spec(std::string_view spec) {
    parsed_spec out;
    out.ok = parse_trigger_spec(
        spec, {"test", "knob", "an integer knob"},
        [](std::string_view site) { return site == "a" || site == "b"; },
        [&](const trigger_token& token) {
            out.triggers.push_back(
                std::string(token.site) + "@" + std::to_string(token.at) +
                "/" +
                (token.param ? std::to_string(*token.param) : "-"));
        },
        out.error);
    return out;
}

TEST(wire_test, trigger_specs_parse_in_order_with_optional_params) {
    const parsed_spec spec = parse_spec("a@1,b@20/7,a@3/");
    ASSERT_TRUE(spec.ok) << spec.error;
    EXPECT_EQ(spec.triggers,
              (std::vector<std::string>{"a@1/-", "b@20/7", "a@3/-"}));
    EXPECT_TRUE(parse_spec("").ok);
    EXPECT_TRUE(parse_spec("a@1,").ok);
}

TEST(wire_test, trigger_spec_diagnostics_quote_the_offending_token) {
    const struct {
        const char* spec;
        const char* error;
    } cases[] = {
        {"a@1,,b@2", "empty test trigger in spec 'a@1,,b@2'"},
        {",a@1", "empty test trigger in spec ',a@1'"},
        {"a", "test trigger 'a' wants site@at[/knob]"},
        {"@1", "test trigger '@1' wants site@at[/knob]"},
        {"c@1", "test trigger 'c@1': unknown test site 'c'"},
        {"c@x", "test trigger 'c@x': unknown test site 'c'"},
        {"a@0", "test trigger 'a@0' wants a positive integer after '@'"},
        {"a@+1", "test trigger 'a@+1' wants a positive integer after '@'"},
        {"a@1/x", "test trigger 'a@1/x' wants an integer knob after '/'"},
    };
    for (const auto& c : cases) {
        const parsed_spec spec = parse_spec(c.spec);
        EXPECT_FALSE(spec.ok) << c.spec;
        EXPECT_EQ(spec.error, c.error);
    }
    // Triggers before the malformed one are already delivered.
    EXPECT_EQ(parse_spec("a@1,b@0").triggers,
              std::vector<std::string>{"a@1/-"});
}

TEST(wire_test, trigger_latch_fires_each_trigger_once_first_match_first) {
    trigger_latch latch(3);
    const auto any = [](std::size_t) { return true; };
    EXPECT_EQ(latch.fire(any), 0U);
    EXPECT_EQ(latch.fire([](std::size_t t) { return t == 2; }), 2U);
    EXPECT_EQ(latch.fire([](std::size_t t) { return t == 2; }),
              std::nullopt);
    EXPECT_EQ(latch.fire(any), 1U);
    EXPECT_EQ(latch.fire(any), std::nullopt);
    EXPECT_EQ(latch.count(), 3U);
}

} // namespace
} // namespace gb
