// Retention-time profiling study (after Liu et al., ISCA'13 [19], whose
// methodology the paper adopts for its DPBenches).
//
// Profiling asks: how many scan rounds does it take to discover every cell
// that could ever fail at the target refresh period?  A single solid
// pattern finds only the cells vulnerable at that polarity and exerts no
// coupling stress; each *random* round draws fresh data, so different cells
// are vulnerable and differently aggressed -- coverage accumulates over
// rounds.  VRT cells (if enabled in the retention model) toggle between
// retention states and keep surfacing new locations even late in the
// profile, which is [19]'s core argument for why profiling is hard.
#pragma once

#include <cstdint>
#include <vector>

#include "dram/memory_system.hpp"

namespace gb {

struct profiling_round {
    int round = 0;
    std::uint64_t observed = 0;   ///< failing locations this round
    std::uint64_t discovered = 0; ///< newly seen this round
    std::uint64_t cumulative = 0; ///< unique locations so far
};

struct profiling_result {
    std::vector<profiling_round> rounds;
    /// Ground truth: cells that could fail under worst-case data at the
    /// current settings (the profile's target population).
    std::uint64_t ground_truth = 0;

    [[nodiscard]] double coverage() const {
        return ground_truth == 0
                   ? 1.0
                   : static_cast<double>(rounds.empty()
                                             ? 0
                                             : rounds.back().cumulative) /
                         static_cast<double>(ground_truth);
    }
};

/// Run `rounds` scans of `pattern` with per-round seeds and accumulate the
/// unique failing locations.  Solid patterns saturate after one round;
/// random rounds keep discovering.
[[nodiscard]] profiling_result profile_weak_cells(const memory_system& memory,
                                                  int rounds,
                                                  data_pattern pattern,
                                                  std::uint64_t base_seed);

} // namespace gb
