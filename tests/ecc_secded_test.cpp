#include "ecc/secded.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace gb {
namespace {

TEST(secded_test, clean_word_decodes_clean) {
    const secded72_64& codec = secded72_64::instance();
    for (const std::uint64_t data :
         {std::uint64_t{0}, ~std::uint64_t{0}, std::uint64_t{0xdeadbeefULL},
          std::uint64_t{0x0123456789abcdefULL}}) {
        const secded_word word = codec.encode(data);
        const decode_result result = codec.decode(word);
        EXPECT_EQ(result.status, decode_status::clean);
        EXPECT_EQ(result.data, data);
        EXPECT_EQ(result.corrected_bit, -1);
    }
}

TEST(secded_test, columns_are_distinct_and_odd_weight) {
    const secded72_64& codec = secded72_64::instance();
    std::set<std::uint8_t> seen;
    for (int bit = 0; bit < secded72_64::total_bits; ++bit) {
        const std::uint8_t column = codec.column(bit);
        EXPECT_TRUE(seen.insert(column).second) << "duplicate column";
        if (bit < secded72_64::data_bits) {
            EXPECT_EQ(std::popcount(static_cast<unsigned>(column)) % 2, 1)
                << "data column must have odd weight";
        } else {
            EXPECT_EQ(std::popcount(static_cast<unsigned>(column)), 1)
                << "check column must be a unit vector";
        }
    }
}

// Property: every single-bit error, in data or check bits, is corrected and
// the original data recovered.
class single_error_test : public ::testing::TestWithParam<int> {};

TEST_P(single_error_test, corrected) {
    const int bit = GetParam();
    const secded72_64& codec = secded72_64::instance();
    rng r(static_cast<std::uint64_t>(bit) + 17);
    for (int trial = 0; trial < 16; ++trial) {
        const std::uint64_t data = r();
        const secded_word corrupted =
            flip_codeword_bit(codec.encode(data), bit);
        const decode_result result = codec.decode(corrupted);
        EXPECT_EQ(result.status, decode_status::corrected);
        EXPECT_EQ(result.data, data);
        EXPECT_EQ(result.corrected_bit, bit);
    }
}

INSTANTIATE_TEST_SUITE_P(all_positions, single_error_test,
                         ::testing::Range(0, secded72_64::total_bits));

// Property: every double-bit error is detected as uncorrectable -- SECDED's
// defining guarantee, enabled by the odd-weight Hsiao columns.
TEST(secded_test, all_double_errors_detected) {
    const secded72_64& codec = secded72_64::instance();
    const std::uint64_t data = 0x5a5a5a5a5a5a5a5aULL;
    const secded_word word = codec.encode(data);
    for (int i = 0; i < secded72_64::total_bits; ++i) {
        for (int j = i + 1; j < secded72_64::total_bits; ++j) {
            const secded_word corrupted =
                flip_codeword_bit(flip_codeword_bit(word, i), j);
            const decode_result result = codec.decode(corrupted);
            ASSERT_EQ(result.status, decode_status::uncorrectable)
                << "double error (" << i << ", " << j << ") not detected";
        }
    }
}

TEST(secded_test, triple_errors_never_decode_clean) {
    const secded72_64& codec = secded72_64::instance();
    rng r(99);
    int miscorrections = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        const std::uint64_t data = r();
        secded_word word = codec.encode(data);
        int bits[3];
        bits[0] = static_cast<int>(r.uniform_index(72));
        do {
            bits[1] = static_cast<int>(r.uniform_index(72));
        } while (bits[1] == bits[0]);
        do {
            bits[2] = static_cast<int>(r.uniform_index(72));
        } while (bits[2] == bits[0] || bits[2] == bits[1]);
        for (const int b : bits) {
            word = flip_codeword_bit(word, b);
        }
        const decode_result result = codec.decode(word);
        // An odd number of flips always leaves an odd-weight syndrome, so
        // the decoder either miscorrects (reported corrected, wrong data)
        // or, if the syndrome hits an unused value, flags uncorrectable.
        ASSERT_NE(result.status, decode_status::clean);
        if (result.status == decode_status::corrected) {
            EXPECT_NE(result.data, data) << "3 flips cannot self-heal";
            ++miscorrections;
        }
    }
    // Most triple errors alias onto some single-bit syndrome.
    EXPECT_GT(miscorrections, 0);
}

TEST(secded_test, check_bits_depend_on_data) {
    const secded72_64& codec = secded72_64::instance();
    EXPECT_NE(codec.encode_check(0x1), codec.encode_check(0x2));
    EXPECT_EQ(codec.encode_check(0), 0);
}

TEST(secded_test, encode_check_is_linear) {
    const secded72_64& codec = secded72_64::instance();
    rng r(5);
    for (int trial = 0; trial < 100; ++trial) {
        const std::uint64_t a = r();
        const std::uint64_t b = r();
        EXPECT_EQ(codec.encode_check(a ^ b),
                  codec.encode_check(a) ^ codec.encode_check(b));
    }
}

/// Check bits as the XOR of the parity-check columns of the set data bits:
/// the definition the byte-sliced encoder must reproduce.
std::uint8_t check_by_columns(const secded72_64& codec, std::uint64_t data) {
    std::uint8_t check = 0;
    for (int bit = 0; bit < secded72_64::data_bits; ++bit) {
        if ((data >> bit & 1U) != 0) {
            check ^= codec.column(bit);
        }
    }
    return check;
}

TEST(secded_test, byte_sliced_check_matches_column_xor) {
    const secded72_64& codec = secded72_64::instance();
    EXPECT_EQ(codec.encode_check(0), check_by_columns(codec, 0));
    EXPECT_EQ(codec.encode_check(~std::uint64_t{0}),
              check_by_columns(codec, ~std::uint64_t{0}));
    for (int bit = 0; bit < secded72_64::data_bits; ++bit) {
        const std::uint64_t unit = std::uint64_t{1} << bit;
        EXPECT_EQ(codec.encode_check(unit), codec.column(bit)) << bit;
    }
    std::uint64_t state = 0x5eedULL;
    for (int trial = 0; trial < 10000; ++trial) {
        const std::uint64_t data = splitmix64(state);
        ASSERT_EQ(codec.encode_check(data), check_by_columns(codec, data))
            << std::hex << data;
    }
}

TEST(secded_test, flip_codeword_bit_bounds) {
    const secded_word word{};
    EXPECT_THROW((void)flip_codeword_bit(word, -1), contract_violation);
    EXPECT_THROW((void)flip_codeword_bit(word, 72), contract_violation);
}

TEST(secded_test, classify_decode_taxonomy) {
    const secded72_64& codec = secded72_64::instance();
    const std::uint64_t golden = 0x0123456789abcdefULL;
    const secded_word word = codec.encode(golden);

    // Clean word against its own golden data.
    EXPECT_EQ(classify_decode(codec.decode(word), golden),
              word_outcome::clean);

    // Single flip: decoder corrects back to golden.
    EXPECT_EQ(classify_decode(codec.decode(flip_codeword_bit(word, 13)),
                              golden),
              word_outcome::corrected);

    // Double flip: detected uncorrectable, regardless of golden.
    EXPECT_EQ(classify_decode(
                  codec.decode(flip_codeword_bit(
                      flip_codeword_bit(word, 3), 40)),
                  golden),
              word_outcome::uncorrectable);
}

TEST(secded_test, classify_decode_catches_aliased_triples_as_sdc) {
    // Find a triple flip whose syndrome aliases onto a valid single-error
    // correction: the decoder reports clean/corrected but the data is wrong.
    // Only the golden comparison exposes it -- exactly the SDC signal the
    // supervisor's sentinels exist to surface.
    const secded72_64& codec = secded72_64::instance();
    const std::uint64_t golden = 0xfeedfacecafebeefULL;
    const secded_word word = codec.encode(golden);
    bool found_sdc = false;
    for (int a = 0; a < 16 && !found_sdc; ++a) {
        for (int b = a + 1; b < 32 && !found_sdc; ++b) {
            for (int c = b + 1; c < 72 && !found_sdc; ++c) {
                const secded_word corrupted = flip_codeword_bit(
                    flip_codeword_bit(flip_codeword_bit(word, a), b), c);
                const decode_result decoded = codec.decode(corrupted);
                const word_outcome outcome =
                    classify_decode(decoded, golden);
                if (decoded.status != decode_status::uncorrectable &&
                    decoded.data != golden) {
                    EXPECT_EQ(outcome, word_outcome::silent_corruption);
                    found_sdc = true;
                }
            }
        }
    }
    EXPECT_TRUE(found_sdc);
}

TEST(secded_test, flip_is_involution) {
    const secded72_64& codec = secded72_64::instance();
    const secded_word word = codec.encode(0xabcdef);
    for (int bit = 0; bit < 72; ++bit) {
        EXPECT_EQ(flip_codeword_bit(flip_codeword_bit(word, bit), bit), word);
    }
}

} // namespace
} // namespace gb
