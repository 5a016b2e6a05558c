// The simulated DRAM subsystem: topology + weak-cell populations + refresh
// control + per-DIMM temperature, with the MCU read path's SECDED ECC
// actually exercised on every affected codeword.
//
// The central question the paper asks of DRAM -- "which cells fail when the
// refresh period is relaxed N-fold at temperature T under data D, and does
// ECC contain them?" -- is answered by `run_dpbench` / `run_access_profile`.
// In refresh steady state a cell fails iff its effective retention is
// shorter than its effective refresh interval (the scheduled period, or the
// re-access interval for rows a workload touches faster than refresh).
#pragma once

#include <cstdint>
#include <vector>

#include "dram/patterns.hpp"
#include "dram/retention.hpp"
#include "dram/topology.hpp"
#include "util/units.hpp"

namespace gb {

/// Bounds of the characterization study; the sampler materializes exactly
/// the weak-cell tail these bounds can ever expose.
struct study_limits {
    celsius max_temperature{60.0};
    milliseconds max_refresh_period{2283.0};
};

/// JEDEC-nominal DDR3 refresh period.
inline constexpr milliseconds nominal_refresh_period{64.0};

/// Result of one full-memory scan (a DPBench or an application profile).
struct scan_result {
    std::uint64_t failed_cells = 0;   ///< unique leaking bit locations
    std::uint64_t affected_words = 0; ///< codewords with >= 1 failed bit
    std::uint64_t ce_words = 0;       ///< corrected by SECDED
    std::uint64_t ue_words = 0;       ///< detected uncorrectable
    std::uint64_t sdc_words = 0;      ///< miscorrected (3+ flips aliasing)
    std::int64_t scanned_bits = 0;    ///< denominator for BER
    /// Unique failing locations per bank index, summed over all chips.
    std::array<std::uint64_t, 8> per_bank_failures{};

    [[nodiscard]] double bit_error_rate() const;
    [[nodiscard]] bool fully_corrected() const {
        return ue_words == 0 && sdc_words == 0;
    }
    /// Largest per-bank failure count: a burst concentrated in one bank is
    /// a stronger degradation signal than the same total spread uniformly.
    [[nodiscard]] std::uint64_t max_bank_failures() const;
    /// Correctable-error burst: ECC held, but one scan produced at least
    /// `threshold` CE words.  DRAM reliability under relaxed refresh
    /// degrades gradually, so CE volume is the precursor signal the
    /// supervisor's circuit breakers watch before UEs ever appear.
    [[nodiscard]] bool ce_burst(std::uint64_t threshold) const {
        return ce_words >= threshold;
    }
};

/// DRAM-side behaviour of an application (the Rodinia runs of Fig 8).
struct access_profile {
    /// Fraction of memory the application's working set occupies.
    double footprint_fraction = 1.0;
    /// Fraction of the footprint whose rows are re-accessed faster than the
    /// refresh period (implicit refresh; the effect the paper credits for
    /// real workloads showing less BER than the random DPBench).
    double refreshed_fraction = 0.0;
    /// i.i.d. ones-density of the application's resident data.
    double ones_density = 0.5;
};

class memory_system {
public:
    memory_system(dram_geometry geometry, retention_model model,
                  std::uint64_t seed, study_limits limits = {});

    /// Uniform temperature across all DIMMs.
    void set_temperature(celsius t);
    /// Per-DIMM temperature (the thermal testbed heats DIMMs independently).
    void set_dimm_temperature(int dimm, celsius t);
    [[nodiscard]] celsius dimm_temperature(int dimm) const;

    void set_refresh_period(milliseconds period);
    [[nodiscard]] milliseconds refresh_period() const { return refresh_; }

    /// Scan the whole memory under a DPBench pattern at the current refresh
    /// period and temperatures.  `pattern_seed` fixes the random pattern's
    /// content and, for VRT cells, which retention state the scan observes.
    [[nodiscard]] scan_result run_dpbench(data_pattern pattern,
                                          std::uint64_t pattern_seed) const;

    /// Same scan evaluated at an explicit refresh period instead of the
    /// stored one.  Being const and side-effect free, this is the form the
    /// parallel campaign engine uses: concurrent tasks sweep different
    /// periods against one shared memory_system without mutating it.  The
    /// period must be within the study limits.
    ///
    /// Each scan pays only for the cells that can fail: the per-DIMM
    /// temperature factor is hoisted out of the cell loop, cells whose
    /// retention floor (full aggression, VRT weak state) already holds the
    /// period are skipped before any hash draw, and the failed cells are
    /// grouped into codewords by sorting integer keys.  Results are
    /// bitwise-identical to evaluating every cell (held by
    /// kernel_equivalence_test against a test-local reference scan).
    [[nodiscard]] scan_result run_dpbench(data_pattern pattern,
                                          std::uint64_t pattern_seed,
                                          milliseconds refresh_period) const;

    /// Keys (cell_key) of the cells that fail a DPBench scan: the raw
    /// material of retention profiling (dram/profiling.hpp) and scrub
    /// analysis (dram/scrubbing.hpp).  `vrt_seed` selects the VRT cells'
    /// per-window state independently of the data content; the two-argument
    /// form ties them together (each scan is its own window).
    [[nodiscard]] std::vector<std::uint64_t> failing_cell_keys(
        data_pattern pattern, std::uint64_t pattern_seed,
        std::uint64_t vrt_seed) const;
    [[nodiscard]] std::vector<std::uint64_t> failing_cell_keys(
        data_pattern pattern, std::uint64_t pattern_seed) const {
        return failing_cell_keys(pattern, pattern_seed, pattern_seed);
    }

    /// Evaluate an application's resident data under the current settings.
    [[nodiscard]] scan_result run_access_profile(const access_profile& app,
                                                 std::uint64_t seed) const;

    /// Unique weak cells in one bank with effective retention below the
    /// current refresh period at the bank's temperature, under the worst
    /// pattern of the DPBench suite (the paper's "unique error locations").
    [[nodiscard]] std::uint64_t weak_cell_count(int dimm, int rank, int chip,
                                                int bank) const;

    [[nodiscard]] const std::vector<weak_cell>& bank_cells(int dimm, int rank,
                                                           int chip,
                                                           int bank) const;
    [[nodiscard]] const dram_geometry& geometry() const { return geometry_; }
    [[nodiscard]] const retention_model& model() const { return model_; }
    [[nodiscard]] std::uint64_t total_weak_cells() const;

private:
    [[nodiscard]] std::size_t bank_index(int dimm, int rank, int chip,
                                         int bank) const;
    /// Retention of a cell during one scan: DPD aggression plus, for VRT
    /// cells, the per-scan strong/weak state draw, with the DIMM's
    /// temperature factor precomputed by the caller.
    [[nodiscard]] double scan_retention_seconds_scaled(
        const weak_cell& cell, double temperature_factor, double aggression,
        std::uint64_t scan_seed) const;
    /// Call `visit(cell, temperature_factor, bank)` for every cell, in
    /// bank-major order, whose retention floor is below `refresh_s`; all
    /// other cells hold the period in every scan and are skipped.
    template <typename Visit>
    void for_each_candidate(double refresh_s, Visit visit) const;
    /// Apply ECC to the failed cells (keys: codeword_key << 7 | codeword
    /// bit), accumulating into `result`.
    void apply_ecc(std::vector<std::uint64_t>& failures,
                   std::uint64_t data_seed, scan_result& result) const;

    dram_geometry geometry_;
    retention_model model_;
    study_limits limits_;
    std::vector<celsius> dimm_temperature_;
    milliseconds refresh_ = nominal_refresh_period;
    /// Flat bank-major storage: [dimm][rank][chip][bank].
    std::vector<std::vector<weak_cell>> banks_;
};

} // namespace gb
