#include "dram/profiling.hpp"

#include <unordered_set>

#include "util/contracts.hpp"

namespace gb {

namespace {

/// Ground-truth population: unique cells failable under worst-case
/// aggression at the memory's current refresh period and temperatures.
std::uint64_t worst_case_population(const memory_system& memory) {
    const dram_geometry& g = memory.geometry();
    std::uint64_t total = 0;
    for (int dimm = 0; dimm < g.dimms; ++dimm) {
        for (int rank = 0; rank < g.ranks_per_dimm; ++rank) {
            for (int chip = 0; chip < g.chips_per_rank(); ++chip) {
                for (int bank = 0; bank < g.banks_per_chip; ++bank) {
                    total += memory.weak_cell_count(dimm, rank, chip, bank);
                }
            }
        }
    }
    return total;
}

} // namespace

profiling_result profile_weak_cells(const memory_system& memory, int rounds,
                                    data_pattern pattern,
                                    std::uint64_t base_seed) {
    GB_EXPECTS(rounds >= 1);

    profiling_result result;
    result.ground_truth = worst_case_population(memory);
    result.rounds.reserve(static_cast<std::size_t>(rounds));

    std::unordered_set<std::uint64_t> seen;
    for (int round = 0; round < rounds; ++round) {
        const std::vector<std::uint64_t> keys = memory.failing_cell_keys(
            pattern, base_seed + static_cast<std::uint64_t>(round));
        profiling_round record;
        record.round = round;
        record.observed = keys.size();
        for (const std::uint64_t key : keys) {
            record.discovered += seen.insert(key).second ? 1 : 0;
        }
        record.cumulative = seen.size();
        result.rounds.push_back(record);
    }
    return result;
}

} // namespace gb
