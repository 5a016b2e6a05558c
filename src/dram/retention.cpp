#include "dram/retention.hpp"

#include <cmath>

#include "util/contracts.hpp"
#include "util/stats.hpp"

namespace gb {

double retention_model::temperature_factor(celsius t) const {
    return std::exp2(-(t.value - reference.value) / halving_celsius);
}

double retention_model::to_reference_seconds(double seconds, celsius t) const {
    GB_EXPECTS(seconds > 0.0);
    return seconds / temperature_factor(t);
}

double retention_model::tail_probability(double seconds_at_reference) const {
    GB_EXPECTS(seconds_at_reference > 0.0);
    const double z = (std::log(seconds_at_reference) - mu_log) / sigma_log;
    return normal_cdf(z);
}

double weak_cell::retention_seconds(const retention_model& model, celsius t,
                                    double aggression) const {
    return retention_seconds_scaled(model.temperature_factor(t), aggression);
}

double weak_cell::retention_seconds_scaled(double temperature_factor,
                                           double aggression) const {
    GB_EXPECTS(aggression >= 0.0 && aggression <= 1.0);
    return static_cast<double>(retention_at_reference_s) * temperature_factor *
           (1.0 - static_cast<double>(dpd_strength) * aggression);
}

const std::array<double, 8>& bank_systematic_factors() {
    // Table I, 60 C row {3358, 3610, 3641, 3842, 3293, 3448, 3601, 3540},
    // normalized by its mean (3541.6): persistent bank-to-bank density
    // heterogeneity of roughly 16%.
    static const std::array<double, 8> factors{
        0.9482, 1.0193, 1.0281, 1.0848, 0.9298, 0.9736, 1.0168, 0.9995};
    return factors;
}

weak_cell_sampler::weak_cell_sampler(retention_model model,
                                     dram_geometry geometry,
                                     std::uint64_t seed)
    : model_(model), geometry_(geometry), seed_(seed) {
    geometry_.validate();
    GB_EXPECTS(model_.sigma_log > 0.0);
    GB_EXPECTS(model_.density_scale > 0.0);
    GB_EXPECTS(model_.max_dpd_strength >= 0.0 &&
               model_.max_dpd_strength < 1.0);
    GB_EXPECTS(model_.vrt_fraction >= 0.0 && model_.vrt_fraction <= 1.0);
    GB_EXPECTS(model_.vrt_strong_ratio >= 1.0);
    GB_EXPECTS(model_.vrt_weak_probability > 0.0 &&
               model_.vrt_weak_probability <= 1.0);
}

namespace {

std::uint64_t chip_stream_label(int dimm, int rank, int chip) {
    return (static_cast<std::uint64_t>(dimm) << 32) |
           (static_cast<std::uint64_t>(rank) << 16) |
           static_cast<std::uint64_t>(chip);
}

} // namespace

double weak_cell_sampler::chip_factor(int dimm, int rank, int chip) const {
    GB_EXPECTS(dimm >= 0 && dimm < geometry_.dimms);
    GB_EXPECTS(rank >= 0 && rank < geometry_.ranks_per_dimm);
    GB_EXPECTS(chip >= 0 && chip < geometry_.chips_per_rank());
    rng stream = rng(seed_).child("chip_factor")
                     .child(chip_stream_label(dimm, rank, chip));
    // Lognormal around 1 with ~25% spread: the paper's "large variation of
    // the number of weak cells across the DRAM chips".
    return stream.lognormal(-0.03, 0.25);
}

std::vector<weak_cell> weak_cell_sampler::sample_bank(
    int dimm, int rank, int chip, int bank,
    double threshold_at_reference_s) const {
    GB_EXPECTS(bank >= 0 && bank < geometry_.banks_per_chip);
    GB_EXPECTS(threshold_at_reference_s > 0.0);

    const double p_tail = model_.tail_probability(threshold_at_reference_s);
    const double lambda =
        static_cast<double>(geometry_.cells_per_bank()) * p_tail *
        model_.density_scale *
        bank_systematic_factors()[static_cast<std::size_t>(bank)] *
        chip_factor(dimm, rank, chip);

    rng stream = rng(seed_).child("bank_cells")
                     .child(chip_stream_label(dimm, rank, chip))
                     .child(static_cast<std::uint64_t>(bank));
    const std::uint64_t count = stream.poisson(lambda);

    std::vector<weak_cell> cells;
    cells.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        weak_cell cell;
        cell.address.dimm = static_cast<std::int16_t>(dimm);
        cell.address.rank = static_cast<std::int16_t>(rank);
        cell.address.chip = static_cast<std::int16_t>(chip);
        cell.address.bank = static_cast<std::int16_t>(bank);
        cell.address.row = static_cast<std::int32_t>(
            stream.uniform_index(
                static_cast<std::uint64_t>(geometry_.rows_per_bank)));
        cell.address.column = static_cast<std::int16_t>(
            stream.uniform_index(
                static_cast<std::uint64_t>(geometry_.columns_per_row)));
        cell.address.bit = static_cast<std::int8_t>(stream.uniform_index(
            static_cast<std::uint64_t>(geometry_.bits_per_column)));

        // Inverse-transform sample of the truncated lognormal tail:
        // u ~ U(0,1) maps to the quantile u * P(t < threshold).
        double u = stream.uniform();
        while (u <= 0.0) {
            u = stream.uniform();
        }
        const double z = inverse_normal_cdf(u * p_tail);
        cell.retention_at_reference_s = static_cast<float>(
            std::exp(model_.mu_log + model_.sigma_log * z));

        cell.dpd_strength = static_cast<float>(
            stream.uniform(0.0, model_.max_dpd_strength));
        cell.anti_cell = stream.bernoulli(0.5);
        cell.vrt = stream.bernoulli(model_.vrt_fraction);
        cells.push_back(cell);
    }
    return cells;
}

} // namespace gb
