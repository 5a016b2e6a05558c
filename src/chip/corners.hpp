// Process-corner and per-chip variation model.
//
// The study characterizes one typical chip (TTT) and two sigma chips picked
// from the leakage extremes: TFF (high leakage, fast) and TSS (low leakage,
// slow).  Each chip has its own intrinsic failure voltage, per-core offsets
// (core-to-core variation inside one die) and a droop response describing how
// voltage noise translates into Vmin.  The canonical three chips are
// calibrated against the paper's measurements (Figs 4, 6, 7); random chips
// can be generated for fleet-scale simulations.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace gb {

enum class process_corner : std::uint8_t { ttt, tff, tss };

inline constexpr std::size_t process_corner_count = 3;

[[nodiscard]] std::string_view to_string(process_corner corner);

inline constexpr int cores_per_chip = 8;
inline constexpr int pmds_per_chip = 4;
inline constexpr int cores_per_pmd = 2;

/// How worst-case droop maps into Vmin for a chip.  Below `knee` the chip
/// responds with `gain_low` mV of Vmin per mV of droop; above the knee the
/// response steepens to `gain_high` (decap exhaustion; corner parts are
/// steeper).  This piecewise-linear response is what lets sigma chips match
/// typical chips on benign workloads (Fig 4) yet collapse under the dI/dt
/// virus (Fig 7).
struct droop_response {
    double gain_low = 1.0;
    double gain_high = 1.0;
    millivolts knee{40.0};

    [[nodiscard]] millivolts effective(millivolts droop) const;
};

/// Static electrical personality of one chip.
struct chip_config {
    std::string name;
    process_corner corner = process_corner::ttt;

    /// Logic-path failure voltage of the most robust core at the nominal
    /// 2.4 GHz, excluding droop.
    millivolts v_crit_logic{845.0};
    /// Extra failure voltage of the cache SRAM path when fully stressed
    /// (SRAM Vmin sits above logic Vmin; Wilkerson ISCA'08).
    millivolts v_crit_sram_delta{8.0};
    droop_response response;
    /// Per-core Vmin offsets (core-to-core variation); the most robust core
    /// has offset 0.  Cores 2k and 2k+1 form PMD k.
    std::array<double, cores_per_chip> core_offset_mv{};
    /// Vmin relief per MHz below nominal frequency (more timing slack).
    double vf_slope_mv_per_mhz = 0.13;
    /// Chip leakage current at nominal voltage and 50 C (amperes); the
    /// corner-defining parameter.
    double leakage_current_a = 0.8;

    /// Vmin offset of a core, worst core of a PMD, and PMD membership.
    [[nodiscard]] millivolts core_offset(int core) const;
    [[nodiscard]] millivolts pmd_offset(int pmd) const;
};

/// The three characterized chips, calibrated to the paper.
[[nodiscard]] chip_config make_ttt_chip();
[[nodiscard]] chip_config make_tff_chip();
[[nodiscard]] chip_config make_tss_chip();
[[nodiscard]] chip_config make_chip(process_corner corner);

/// A randomly drawn chip of the given corner for fleet simulations: offsets
/// and thresholds jittered around the canonical part.
[[nodiscard]] chip_config random_chip(process_corner corner, rng& r);

} // namespace gb
