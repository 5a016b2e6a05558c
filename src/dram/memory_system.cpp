#include "dram/memory_system.hpp"

#include <algorithm>
#include <cmath>

#include "ecc/secded.hpp"
#include "util/contracts.hpp"
#include "util/log.hpp"

namespace gb {

double scan_result::bit_error_rate() const {
    return scanned_bits == 0 ? 0.0
                             : static_cast<double>(failed_cells) /
                                   static_cast<double>(scanned_bits);
}

memory_system::memory_system(dram_geometry geometry, retention_model model,
                             std::uint64_t seed, study_limits limits)
    : geometry_(geometry), model_(model), limits_(limits),
      dimm_temperature_(static_cast<std::size_t>(geometry.dimms),
                        model.reference) {
    geometry_.validate();
    GB_EXPECTS(limits_.max_refresh_period.value > 0.0);

    // Materialization threshold: the weakest base retention that any study
    // within `limits` could expose -- the maximum refresh period, at the
    // hottest temperature, under full data-pattern aggression.
    const double threshold_at_reference =
        model_.to_reference_seconds(limits_.max_refresh_period.seconds(),
                                    limits_.max_temperature) /
        (1.0 - model_.max_dpd_strength);

    const weak_cell_sampler sampler(model_, geometry_, seed);
    const std::size_t bank_count =
        static_cast<std::size_t>(geometry_.dimms) *
        static_cast<std::size_t>(geometry_.ranks_per_dimm) *
        static_cast<std::size_t>(geometry_.chips_per_rank()) *
        static_cast<std::size_t>(geometry_.banks_per_chip);
    banks_.reserve(bank_count);
    for (int dimm = 0; dimm < geometry_.dimms; ++dimm) {
        for (int rank = 0; rank < geometry_.ranks_per_dimm; ++rank) {
            for (int chip = 0; chip < geometry_.chips_per_rank(); ++chip) {
                for (int bank = 0; bank < geometry_.banks_per_chip; ++bank) {
                    banks_.push_back(sampler.sample_bank(
                        dimm, rank, chip, bank, threshold_at_reference));
                }
            }
        }
    }
    log_info("memory_system: materialized ", total_weak_cells(),
             " weak cells across ", banks_.size(), " banks");
}

void memory_system::set_temperature(celsius t) {
    for (celsius& dimm_t : dimm_temperature_) {
        dimm_t = t;
    }
}

void memory_system::set_dimm_temperature(int dimm, celsius t) {
    GB_EXPECTS(dimm >= 0 && dimm < geometry_.dimms);
    GB_EXPECTS(t <= limits_.max_temperature);
    dimm_temperature_[static_cast<std::size_t>(dimm)] = t;
}

celsius memory_system::dimm_temperature(int dimm) const {
    GB_EXPECTS(dimm >= 0 && dimm < geometry_.dimms);
    return dimm_temperature_[static_cast<std::size_t>(dimm)];
}

void memory_system::set_refresh_period(milliseconds period) {
    GB_EXPECTS(period.value > 0.0);
    GB_EXPECTS(period <= limits_.max_refresh_period);
    refresh_ = period;
}

std::size_t memory_system::bank_index(int dimm, int rank, int chip,
                                      int bank) const {
    GB_EXPECTS(dimm >= 0 && dimm < geometry_.dimms);
    GB_EXPECTS(rank >= 0 && rank < geometry_.ranks_per_dimm);
    GB_EXPECTS(chip >= 0 && chip < geometry_.chips_per_rank());
    GB_EXPECTS(bank >= 0 && bank < geometry_.banks_per_chip);
    return ((static_cast<std::size_t>(dimm) *
                 static_cast<std::size_t>(geometry_.ranks_per_dimm) +
             static_cast<std::size_t>(rank)) *
                static_cast<std::size_t>(geometry_.chips_per_rank()) +
            static_cast<std::size_t>(chip)) *
               static_cast<std::size_t>(geometry_.banks_per_chip) +
           static_cast<std::size_t>(bank);
}

const std::vector<weak_cell>& memory_system::bank_cells(int dimm, int rank,
                                                        int chip,
                                                        int bank) const {
    return banks_[bank_index(dimm, rank, chip, bank)];
}

std::uint64_t memory_system::total_weak_cells() const {
    std::uint64_t total = 0;
    for (const auto& bank : banks_) {
        total += bank.size();
    }
    return total;
}

namespace {

/// Sort key of one failed cell for ECC grouping:
/// codeword_key << 7 | codeword bit (0..71).  Sorting the plain integers
/// groups each codeword's flips together without re-deriving the codeword
/// key inside the comparator.
constexpr int failure_bit_width = 7;
constexpr std::uint64_t failure_bit_mask = (1ULL << failure_bit_width) - 1;

std::uint64_t failure_key(const cell_address& address) {
    return codeword_key(codeword_of(address)) << failure_bit_width |
           static_cast<std::uint64_t>(codeword_bit_of(address));
}

/// Lowest retention a cell can show in any scan at temperature factor `tf`:
/// full data-pattern aggression, VRT weak state.  Bitwise equal to
/// `cell.retention_seconds_scaled(tf, 1.0)`; every scan's retention is
/// `r * tf * (1 - dpd * a)` with a in [0, 1], optionally times
/// vrt_strong_ratio >= 1, and IEEE rounding is monotone, so no scan can see
/// the cell below this value.  Written out here rather than calling the
/// out-of-line retention_seconds_scaled, because it runs once per
/// materialized cell in every scan.
double retention_floor_seconds(const weak_cell& cell, double tf) {
    return static_cast<double>(cell.retention_at_reference_s) * tf *
           (1.0 - static_cast<double>(cell.dpd_strength));
}

} // namespace

void memory_system::apply_ecc(std::vector<std::uint64_t>& failures,
                              std::uint64_t data_seed,
                              scan_result& result) const {
    // Group failing cells by codeword and run the real SECDED decode on each
    // affected word: golden data is derived from the word's key so that
    // miscorrections (3+ flips aliasing onto a valid single-error syndrome)
    // are detected as SDC by comparison, exactly like the paper's golden
    // reference check.  Bit flips commute, so the order of a word's flips
    // does not affect its outcome.
    std::sort(failures.begin(), failures.end());

    const secded72_64& codec = secded72_64::instance();
    std::size_t i = 0;
    while (i < failures.size()) {
        const std::uint64_t word_key = failures[i] >> failure_bit_width;
        std::size_t j = i + 1;
        while (j < failures.size() &&
               failures[j] >> failure_bit_width == word_key) {
            ++j;
        }

        ++result.affected_words;
        std::uint64_t mixer = word_key ^ data_seed;
        const std::uint64_t golden = splitmix64(mixer);
        secded_word stored = codec.encode(golden);
        for (std::size_t k = i; k < j; ++k) {
            stored = flip_codeword_bit(
                stored, static_cast<int>(failures[k] & failure_bit_mask));
        }
        switch (classify_decode(codec.decode(stored), golden)) {
        case word_outcome::corrected:
            ++result.ce_words;
            break;
        case word_outcome::uncorrectable:
            ++result.ue_words;
            break;
        case word_outcome::clean:
            // Distinct flipped bits cannot cancel back to the stored word;
            // treat defensively as SDC.
        case word_outcome::silent_corruption:
            ++result.sdc_words;
            break;
        }
        i = j;
    }
}

double memory_system::scan_retention_seconds_scaled(
    const weak_cell& cell, double temperature_factor, double aggression,
    std::uint64_t scan_seed) const {
    double retention =
        cell.retention_seconds_scaled(temperature_factor, aggression);
    if (cell.vrt) {
        // Per-scan state draw: the cell is weak with vrt_weak_probability,
        // strong otherwise.
        std::uint64_t h = cell_key(cell.address) ^ scan_seed ^
                          0x5bf03635de1d1a27ULL;
        const double u =
            static_cast<double>(splitmix64(h) >> 11) * 0x1.0p-53;
        if (u >= model_.vrt_weak_probability) {
            retention *= model_.vrt_strong_ratio;
        }
    }
    return retention;
}

template <typename Visit>
void memory_system::for_each_candidate(double refresh_s, Visit visit) const {
    for (int dimm = 0; dimm < geometry_.dimms; ++dimm) {
        // The temperature factor (an exp2) is constant across the DIMM:
        // compute it once per DIMM instead of once per cell.
        const double tf = model_.temperature_factor(
            dimm_temperature_[static_cast<std::size_t>(dimm)]);
        for (int rank = 0; rank < geometry_.ranks_per_dimm; ++rank) {
            for (int chip = 0; chip < geometry_.chips_per_rank(); ++chip) {
                for (int bank = 0; bank < geometry_.banks_per_chip; ++bank) {
                    for (const weak_cell& cell :
                         bank_cells(dimm, rank, chip, bank)) {
                        // A cell whose floor holds the period cannot fail.
                        // Every per-cell draw is a stateless hash of the
                        // cell's key, so skipping it changes no other
                        // cell's outcome.
                        if (retention_floor_seconds(cell, tf) >= refresh_s) {
                            continue;
                        }
                        visit(cell, tf, static_cast<std::size_t>(bank));
                    }
                }
            }
        }
    }
}

scan_result memory_system::run_dpbench(data_pattern pattern,
                                       std::uint64_t pattern_seed) const {
    return run_dpbench(pattern, pattern_seed, refresh_);
}

scan_result memory_system::run_dpbench(data_pattern pattern,
                                       std::uint64_t pattern_seed,
                                       milliseconds refresh_period) const {
    GB_EXPECTS(refresh_period.value > 0.0);
    GB_EXPECTS(refresh_period <= limits_.max_refresh_period);
    scan_result result;
    result.scanned_bits = geometry_.data_bytes() * 8;

    const double refresh_s = refresh_period.seconds();
    std::vector<std::uint64_t> failures;
    for_each_candidate(refresh_s, [&](const weak_cell& cell, double tf,
                                      std::size_t bank) {
        const pattern_stress stress = stress_of(pattern, cell, pattern_seed);
        if (stress.vulnerable &&
            scan_retention_seconds_scaled(cell, tf, stress.aggression,
                                          pattern_seed) < refresh_s) {
            failures.push_back(failure_key(cell.address));
            ++result.per_bank_failures[bank];
        }
    });
    result.failed_cells = failures.size();
    apply_ecc(failures, pattern_seed, result);
    return result;
}

scan_result memory_system::run_access_profile(const access_profile& app,
                                              std::uint64_t seed) const {
    GB_EXPECTS(app.footprint_fraction > 0.0 && app.footprint_fraction <= 1.0);
    GB_EXPECTS(app.refreshed_fraction >= 0.0 &&
               app.refreshed_fraction <= 1.0);

    scan_result result;
    result.scanned_bits = static_cast<std::int64_t>(
        static_cast<double>(geometry_.data_bytes() * 8) *
        app.footprint_fraction);

    const double refresh_s = refresh_.seconds();
    std::vector<std::uint64_t> failures;
    for_each_candidate(refresh_s, [&](const weak_cell& cell, double tf,
                                      std::size_t bank) {
        // Membership draws are stable per cell per run seed.  Each purpose
        // gets its own salt so the draws are independent of the
        // data/vulnerability hashes used inside the stress model.
        std::uint64_t h = cell_key(cell.address) ^ seed ^ 0x71c9d1f0a5b3e647ULL;
        const double u_footprint =
            static_cast<double>(splitmix64(h) >> 11) * 0x1.0p-53;
        if (u_footprint >= app.footprint_fraction) {
            return;
        }
        const double u_refresh =
            static_cast<double>(splitmix64(h) >> 11) * 0x1.0p-53;
        if (u_refresh < app.refreshed_fraction) {
            return; // row re-accessed faster than refresh
        }
        const pattern_stress stress =
            stress_of_application_data(cell, app.ones_density, seed);
        if (stress.vulnerable &&
            scan_retention_seconds_scaled(cell, tf, stress.aggression, seed) <
                refresh_s) {
            failures.push_back(failure_key(cell.address));
            ++result.per_bank_failures[bank];
        }
    });
    result.failed_cells = failures.size();
    apply_ecc(failures, seed, result);
    return result;
}

std::vector<std::uint64_t> memory_system::failing_cell_keys(
    data_pattern pattern, std::uint64_t pattern_seed,
    std::uint64_t vrt_seed) const {
    const double refresh_s = refresh_.seconds();
    std::vector<std::uint64_t> keys;
    for_each_candidate(refresh_s, [&](const weak_cell& cell, double tf,
                                      std::size_t /*bank*/) {
        const pattern_stress stress = stress_of(pattern, cell, pattern_seed);
        if (stress.vulnerable &&
            scan_retention_seconds_scaled(cell, tf, stress.aggression,
                                          vrt_seed) < refresh_s) {
            keys.push_back(cell_key(cell.address));
        }
    });
    return keys;
}

std::uint64_t memory_system::weak_cell_count(int dimm, int rank, int chip,
                                             int bank) const {
    const double tf = model_.temperature_factor(
        dimm_temperature_[static_cast<std::size_t>(dimm)]);
    const double refresh_s = refresh_.seconds();
    std::uint64_t count = 0;
    for (const weak_cell& cell : bank_cells(dimm, rank, chip, bank)) {
        // Worst pattern of the suite: full aggression on every cell (the
        // random DPBench eventually exposes each cell's worst combination;
        // unique locations are the union over the suite).
        if (retention_floor_seconds(cell, tf) < refresh_s) {
            ++count;
        }
    }
    return count;
}

} // namespace gb
