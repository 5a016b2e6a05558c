#include "dram/patterns.hpp"

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace gb {

std::string_view to_string(data_pattern pattern) {
    switch (pattern) {
    case data_pattern::all_zeros: return "all_0s";
    case data_pattern::all_ones: return "all_1s";
    case data_pattern::checkerboard: return "checkerboard";
    case data_pattern::random_data: return "random";
    }
    return "?";
}

const std::array<data_pattern, 4>& all_data_patterns() {
    static const std::array<data_pattern, 4> patterns{
        data_pattern::all_zeros, data_pattern::all_ones,
        data_pattern::checkerboard, data_pattern::random_data};
    return patterns;
}

namespace {

/// Stable per-cell hash of a cell key mixed with a run seed, for
/// random-pattern bits and per-cell aggression draws.
std::uint64_t key_hash(std::uint64_t key, std::uint64_t seed) {
    std::uint64_t state = key ^ seed;
    return splitmix64(state);
}

/// Map a hash to [0, 1).
double hash_to_unit(std::uint64_t h) {
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

} // namespace

bool pattern_bit(data_pattern pattern, const cell_address& cell,
                 std::uint64_t seed) {
    switch (pattern) {
    case data_pattern::all_zeros:
        return false;
    case data_pattern::all_ones:
        return true;
    case data_pattern::checkerboard:
        // Alternating per physical neighbour in both row and column+bit
        // directions.
        return ((cell.row + cell.column * 8 + cell.bit) & 1) != 0;
    case data_pattern::random_data:
        return (key_hash(cell_key(cell), seed) & 1) != 0;
    }
    GB_ASSERT(false);
    return false;
}

pattern_stress stress_of(data_pattern pattern, const weak_cell& cell,
                         std::uint64_t seed) {
    pattern_stress stress;
    const bool charged_level = !cell.anti_cell; // true-cell stores 1 charged
    if (pattern == data_pattern::random_data) {
        // The stored bit and the aggression draw hash one cell key with two
        // salts.  Random neighbourhoods hit each cell's worst-case
        // combination with some probability; per-cell draw in [0.5, 1.0].
        const std::uint64_t key = cell_key(cell.address);
        stress.vulnerable = ((key_hash(key, seed) & 1) != 0) == charged_level;
        if (stress.vulnerable) {
            stress.aggression =
                0.5 + 0.5 * hash_to_unit(
                                key_hash(key, seed ^ 0x9e3779b97f4a7c15ULL));
        }
        return stress;
    }
    stress.vulnerable =
        pattern_bit(pattern, cell.address, seed) == charged_level;
    if (stress.vulnerable) {
        // Uniform neighbourhoods: essentially no coupling aggression.  The
        // checkerboard couples strongly, but its fixed geometry matches only
        // part of each cell's private worst-case combination.
        stress.aggression =
            pattern == data_pattern::checkerboard ? 0.55 : 0.05;
    }
    return stress;
}

pattern_stress stress_of_application_data(const weak_cell& cell,
                                          double ones_density,
                                          std::uint64_t seed) {
    GB_EXPECTS(ones_density >= 0.0 && ones_density <= 1.0);
    pattern_stress stress;
    const bool charged_level = !cell.anti_cell;
    const double p_stored_charged =
        charged_level ? ones_density : 1.0 - ones_density;
    const std::uint64_t key = cell_key(cell.address);
    const double u = hash_to_unit(key_hash(key, seed));
    stress.vulnerable = u < p_stored_charged;
    if (!stress.vulnerable) {
        return stress;
    }
    // Coupling scales with data entropy; the per-cell draw mirrors the
    // random DPBench but damped by 4 p (1 - p).
    const double entropy_factor = 4.0 * ones_density * (1.0 - ones_density);
    const double draw =
        0.5 + 0.5 * hash_to_unit(key_hash(key, seed ^ 0xda942042e4dd58b5ULL));
    stress.aggression = draw * entropy_factor;
    return stress;
}

} // namespace gb
