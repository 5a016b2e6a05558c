#include "ecc/secded.hpp"

#include <bit>
#include <cstddef>

#include "util/contracts.hpp"

namespace gb {

const secded72_64& secded72_64::instance() {
    static const secded72_64 codec;
    return codec;
}

secded72_64::secded72_64() {
    // Hsiao construction: data columns are distinct odd-weight 8-bit vectors
    // of weight >= 3 (weight-3 first: C(8,3) = 56 of them, then weight-5 for
    // the remaining 8); check-bit columns are the unit vectors.  Odd column
    // weight guarantees that any double error produces an even-weight, hence
    // nonzero and non-column, syndrome -> detectable but not (mis)correctable.
    int next = 0;
    for (int weight : {3, 5}) {
        for (int pattern = 0; pattern < 256 && next < data_bits; ++pattern) {
            if (std::popcount(static_cast<unsigned>(pattern)) == weight) {
                columns_[next++] = static_cast<std::uint8_t>(pattern);
            }
        }
    }
    GB_ASSERT(next == data_bits);
    for (int c = 0; c < check_bits; ++c) {
        columns_[data_bits + c] = static_cast<std::uint8_t>(1u << c);
    }

    syndrome_to_bit_.fill(-1);
    for (int bit = 0; bit < total_bits; ++bit) {
        GB_ASSERT(syndrome_to_bit_[columns_[bit]] == -1);
        syndrome_to_bit_[columns_[bit]] = static_cast<std::int16_t>(bit);
    }

    // Byte-sliced check bits: the code is linear, so the check byte of a
    // data word is the XOR of the check bytes of its eight data bytes.
    for (int slice = 0; slice < data_bytes; ++slice) {
        for (int value = 0; value < 256; ++value) {
            std::uint8_t check = 0;
            for (int k = 0; k < 8; ++k) {
                if ((value >> k & 1) != 0) {
                    check ^= columns_[static_cast<std::size_t>(slice * 8 + k)];
                }
            }
            check_of_byte_[static_cast<std::size_t>(slice)]
                          [static_cast<std::size_t>(value)] = check;
        }
    }
}

std::uint8_t secded72_64::encode_check(std::uint64_t data) const {
    std::uint8_t check = 0;
    for (const auto& slice : check_of_byte_) {
        check ^= slice[data & 0xff];
        data >>= 8;
    }
    return check;
}

secded_word secded72_64::encode(std::uint64_t data) const {
    return secded_word{data, encode_check(data)};
}

decode_result secded72_64::decode(const secded_word& word) const {
    const std::uint8_t syndrome =
        static_cast<std::uint8_t>(encode_check(word.data) ^ word.check);
    if (syndrome == 0) {
        return decode_result{decode_status::clean, word.data, -1};
    }
    const std::int16_t bit = syndrome_to_bit_[syndrome];
    if (bit < 0) {
        // Even-weight or unused syndrome: detectable, uncorrectable.
        return decode_result{decode_status::uncorrectable, word.data, -1};
    }
    std::uint64_t data = word.data;
    if (bit < data_bits) {
        data ^= std::uint64_t{1} << bit;
    }
    // A flipped check bit leaves the data intact; still reported as corrected.
    return decode_result{decode_status::corrected, data, bit};
}

std::uint8_t secded72_64::column(int bit_position) const {
    GB_EXPECTS(bit_position >= 0 && bit_position < total_bits);
    return columns_[static_cast<std::size_t>(bit_position)];
}

word_outcome classify_decode(const decode_result& decoded,
                             std::uint64_t golden) {
    switch (decoded.status) {
    case decode_status::clean:
        // A zero syndrome with wrong data means the flips cancelled into
        // another valid codeword: silent.
        return decoded.data == golden ? word_outcome::clean
                                      : word_outcome::silent_corruption;
    case decode_status::corrected:
        return decoded.data == golden ? word_outcome::corrected
                                      : word_outcome::silent_corruption;
    case decode_status::uncorrectable:
        return word_outcome::uncorrectable;
    }
    return word_outcome::uncorrectable;
}

secded_word flip_codeword_bit(secded_word word, int bit_position) {
    GB_EXPECTS(bit_position >= 0 && bit_position < secded72_64::total_bits);
    if (bit_position < secded72_64::data_bits) {
        word.data ^= std::uint64_t{1} << bit_position;
    } else {
        word.check ^= static_cast<std::uint8_t>(
            1u << (bit_position - secded72_64::data_bits));
    }
    return word;
}

} // namespace gb
