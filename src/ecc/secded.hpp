// (72,64) SECDED error-correcting code, Hsiao construction.
//
// The X-Gene2 memory controllers protect every 64-bit word with 8 check bits
// stored on a ninth DRAM chip per rank (hence the 72 chips in the paper's
// testbed: 4 DIMMs x 2 ranks x 9 chips).  A Hsiao code uses only odd-weight
// parity-check columns, which gives single-error correction, double-error
// detection, and minimal-logic encoders -- the construction actually used in
// server memory controllers.
//
// This is a real codec, not a probability model: the DRAM simulator flips
// stored bits at weak-cell locations and the MCU read path runs the decode
// below, so the paper's "all manifested errors are corrected by ECC" claim is
// reproduced by exercising the actual code.
#pragma once

#include <array>
#include <cstdint>

namespace gb {

/// A codeword: 64 data bits plus 8 check bits.
struct secded_word {
    std::uint64_t data = 0;
    std::uint8_t check = 0;

    friend bool operator==(const secded_word&, const secded_word&) = default;
};

/// Outcome of decoding one possibly-corrupted codeword.
enum class decode_status {
    clean,         ///< syndrome zero: no error
    corrected,     ///< single-bit error corrected (CE)
    uncorrectable, ///< double (or detectable multi-) bit error (UE)
};

struct decode_result {
    decode_status status = decode_status::clean;
    std::uint64_t data = 0;  ///< corrected data (valid for clean/corrected)
    int corrected_bit = -1;  ///< 0..63 data bit, 64..71 check bit, -1 if none
};

/// Ground-truth classification of one decode against the golden data the
/// word held.  The decoder alone cannot see silent corruption -- a 3+ bit
/// flip aliasing onto a valid single-error syndrome "corrects" to the wrong
/// word -- so the golden comparison is what separates the SDC signal from a
/// genuine CE.  This is the per-word taxonomy the DRAM scan and the
/// operating-point supervisor's error accounting share.
enum class word_outcome : std::uint8_t {
    clean,             ///< no error
    corrected,         ///< CE: corrected to the golden data
    uncorrectable,     ///< UE: detected, machine-check visible
    silent_corruption, ///< SDC: decode succeeded but the data is wrong
};

[[nodiscard]] word_outcome classify_decode(const decode_result& decoded,
                                           std::uint64_t golden);

/// The (72,64) Hsiao codec.  Stateless apart from precomputed tables; obtain
/// the process-wide instance via `instance()`.
class secded72_64 {
public:
    static const secded72_64& instance();

    /// Compute the 8 check bits for a data word.
    [[nodiscard]] std::uint8_t encode_check(std::uint64_t data) const;

    /// Encode a data word into a full codeword.
    [[nodiscard]] secded_word encode(std::uint64_t data) const;

    /// Decode a (possibly corrupted) codeword.
    [[nodiscard]] decode_result decode(const secded_word& word) const;

    /// Parity-check column for codeword bit position 0..71 (data bits first).
    [[nodiscard]] std::uint8_t column(int bit_position) const;

    static constexpr int data_bits = 64;
    static constexpr int check_bits = 8;
    static constexpr int total_bits = 72;
    static constexpr int data_bytes = data_bits / 8;

private:
    secded72_64();

    std::array<std::uint8_t, total_bits> columns_{};
    // syndrome value -> codeword bit position, or -1 when the syndrome does
    // not correspond to any single-bit error.
    std::array<std::int16_t, 256> syndrome_to_bit_{};
    // [data byte index][byte value] -> XOR of the columns of that byte's set
    // bits; encode_check XORs one entry per data byte.
    std::array<std::array<std::uint8_t, 256>, data_bytes> check_of_byte_{};
};

/// Flip one bit (0..71) of a codeword: utility for fault injection.
[[nodiscard]] secded_word flip_codeword_bit(secded_word word,
                                            int bit_position);

} // namespace gb
