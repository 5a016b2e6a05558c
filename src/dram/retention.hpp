// DRAM cell retention model and sparse weak-cell sampling.
//
// Simulating 2.75e11 cells individually is impossible and unnecessary: only
// the weak tail of the retention distribution matters for refresh-relaxation
// studies.  Retention times follow a lognormal whose deep tail is calibrated
// so that, aggregated across all 72 chips, each bank index holds roughly 200
// cells retaining less than 2.283 s at 50 C and ~3500 at 60 C (the paper's
// Table I).  This system-wide reading of Table I is the one consistent with
// the paper's finding that SECDED corrected every manifested error: ~28k
// scattered weak cells make two-in-one-codeword collisions vanishingly rare,
// whereas a per-chip reading (~2M cells) would force routine double-bit
// words.  Only cells below a
// study-dependent materialization threshold are instantiated, each with:
//   * a base retention time at the 50 C reference (inverse-transform sample
//     of the truncated lognormal tail),
//   * true-/anti-cell polarity (which logical value stores charge),
//   * a data-pattern-dependence (DPD) strength: the relative retention loss
//     under worst-case aggressor data (Liu et al., ISCA'13 [19]).
// Temperature accelerates leakage: retention halves every `halving_celsius`
// degrees (Arrhenius behaviour linearized over the studied range).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "dram/topology.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace gb {

/// Population-level retention statistics.
struct retention_model {
    /// ln(seconds) location and shape of the retention lognormal at the
    /// reference temperature; with density_scale these put ~200 weak cells
    /// per bank index (system-wide) below 2.283 s at 50 C.
    double mu_log = 6.55;
    double sigma_log = 1.155;
    celsius reference{50.0};
    /// Degrees of temperature that halve retention.
    double halving_celsius = 10.0;
    /// Global density calibration knob: scales the lognormal tail so the
    /// whole-system per-bank-index weak-cell counts land on Table I
    /// (~200 at 50 C, ~3500 at 60 C under the 2.283 s period).
    double density_scale = 0.0104;
    /// Maximum relative retention loss under worst-case aggressor data.
    double max_dpd_strength = 0.15;
    /// Fraction of weak cells with variable retention time (VRT): such a
    /// cell toggles between its sampled (weak) state and a stronger state
    /// scan to scan, so its errors come and go between profiling rounds
    /// (Liu et al. [19]).  Default off to keep the Table I calibration.
    double vrt_fraction = 0.0;
    /// Retention multiplier of a VRT cell's strong state.
    double vrt_strong_ratio = 4.0;
    /// Probability that a VRT cell sits in its weak state during a given
    /// scan/window (real VRT cells spend most of their time strong).
    double vrt_weak_probability = 0.5;

    /// Multiplier on retention when moving from the reference to t.
    [[nodiscard]] double temperature_factor(celsius t) const;
    /// Convert a retention measured at temperature t to the reference.
    [[nodiscard]] double to_reference_seconds(double seconds, celsius t) const;
    /// P(base retention at reference < s).
    [[nodiscard]] double tail_probability(double seconds_at_reference) const;
};

/// One materialized weak cell.
struct weak_cell {
    cell_address address;
    float retention_at_reference_s = 0.0F;
    /// Relative retention loss under full aggression (0..max_dpd_strength).
    float dpd_strength = 0.0F;
    /// Anti-cell: logical 0 is the charged state.
    bool anti_cell = false;
    /// Variable-retention-time cell: toggles to a strong state some scans.
    bool vrt = false;

    /// Effective retention at temperature t under `aggression` in [0, 1].
    [[nodiscard]] double retention_seconds(const retention_model& model,
                                           celsius t,
                                           double aggression) const;

    /// Same computation with the temperature factor precomputed by the
    /// caller (`model.temperature_factor(t)`).  The factor is constant per
    /// DIMM in a scan, so hoisting it removes an exp2 per cell; the
    /// multiplication order matches retention_seconds exactly, keeping the
    /// result bitwise-identical (held by kernel_equivalence_test).
    [[nodiscard]] double retention_seconds_scaled(double temperature_factor,
                                                  double aggression) const;
};

/// Per-bank-index systematic density factors, normalized from the 60 C row
/// of the paper's Table I (bank-to-bank heterogeneity of ~16%).
[[nodiscard]] const std::array<double, 8>& bank_systematic_factors();

/// Deterministic sparse sampler: every (dimm, rank, chip, bank) gets a stable
/// stream derived from the system seed, so populations are reproducible
/// regardless of instantiation order.
class weak_cell_sampler {
public:
    weak_cell_sampler(retention_model model, dram_geometry geometry,
                      std::uint64_t seed);

    /// Chip-to-chip density variation (lognormal around 1).
    [[nodiscard]] double chip_factor(int dimm, int rank, int chip) const;

    /// Materialize all weak cells of one bank with base retention below the
    /// given reference-temperature threshold.
    [[nodiscard]] std::vector<weak_cell> sample_bank(
        int dimm, int rank, int chip, int bank,
        double threshold_at_reference_s) const;

    [[nodiscard]] const retention_model& model() const { return model_; }
    [[nodiscard]] const dram_geometry& geometry() const { return geometry_; }

private:
    retention_model model_;
    dram_geometry geometry_;
    std::uint64_t seed_;
};

} // namespace gb
