#include "dram/retention.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace gb {
namespace {

TEST(retention_model_test, temperature_halving) {
    const retention_model model;
    EXPECT_DOUBLE_EQ(model.temperature_factor(celsius{50.0}), 1.0);
    EXPECT_DOUBLE_EQ(model.temperature_factor(celsius{60.0}), 0.5);
    EXPECT_DOUBLE_EQ(model.temperature_factor(celsius{70.0}), 0.25);
    EXPECT_DOUBLE_EQ(model.temperature_factor(celsius{40.0}), 2.0);
}

TEST(retention_model_test, to_reference_roundtrip) {
    const retention_model model;
    // A 2.283 s retention observed at 60 C is a 4.566 s cell at 50 C.
    EXPECT_NEAR(model.to_reference_seconds(2.283, celsius{60.0}), 4.566,
                1e-12);
}

TEST(retention_model_test, tail_probability_monotonic) {
    const retention_model model;
    double last = 0.0;
    for (const double s : {0.5, 1.0, 2.283, 4.566, 10.0}) {
        const double p = model.tail_probability(s);
        EXPECT_GT(p, last);
        last = p;
    }
}

TEST(retention_model_test, table1_calibration_points) {
    const retention_model model;
    const dram_geometry g = xgene2_memory_geometry();
    // System-wide per bank index: 72 chips' worth of one bank.
    const double cells_per_bank_index =
        static_cast<double>(g.cells_per_bank()) * 72.0;
    const double at_50 = model.expected_weak_cells(
        static_cast<std::int64_t>(cells_per_bank_index), 2.283);
    const double at_60 = model.expected_weak_cells(
        static_cast<std::int64_t>(cells_per_bank_index),
        model.to_reference_seconds(2.283, celsius{60.0}));
    // These are the raw thermal counts; the measured "unique error
    // location" counts (Table I: ~200 / ~3550) sit above them because the
    // data-pattern union exposes DPD-marginal cells too.
    EXPECT_NEAR(at_50, 145.0, 45.0);
    EXPECT_NEAR(at_60, 2700.0, 700.0);
    EXPECT_NEAR(at_60 / at_50, 18.0, 4.0);
}

TEST(weak_cell_test, retention_scales_with_temperature_and_aggression) {
    const retention_model model;
    weak_cell cell;
    cell.retention_at_reference_s = 4.0F;
    cell.dpd_strength = 0.1F;
    EXPECT_DOUBLE_EQ(cell.retention_seconds(model, celsius{50.0}, 0.0), 4.0);
    EXPECT_DOUBLE_EQ(cell.retention_seconds(model, celsius{60.0}, 0.0), 2.0);
    EXPECT_NEAR(cell.retention_seconds(model, celsius{50.0}, 1.0), 3.6,
                1e-6); // float storage of dpd_strength
    EXPECT_THROW((void)cell.retention_seconds(model, celsius{50.0}, 1.5),
                 contract_violation);
}

// The DRAM scans skip a cell when retention_seconds_scaled(tf, 1.0) -- full
// aggression -- already holds the refresh period.  That is exact only if no
// aggression in [0, 1] and no VRT strong-state multiplier (>= 1) can take
// the computed retention below that floor; these pin both inequalities on
// the rounded doubles the scans compare.
TEST(weak_cell_test, full_aggression_is_a_retention_floor) {
    const retention_model model;
    std::vector<double> factors;
    for (const double t : {40.0, 47.0, 50.0, 52.0, 53.0, 56.0, 59.0, 60.0}) {
        factors.push_back(model.temperature_factor(celsius{t}));
    }
    rng r(0xf1004ULL);
    for (int k = 0; k < 4; ++k) {
        factors.push_back(r.uniform(0.25, 2.0));
    }
    for (int n = 0; n < 10000; ++n) {
        weak_cell cell;
        cell.retention_at_reference_s =
            static_cast<float>(r.uniform(0.001, 3000.0));
        cell.dpd_strength = static_cast<float>(r.uniform(0.0, 0.15));
        std::vector<double> aggressions{0.0, 1.0, std::nextafter(1.0, 0.0),
                                        0.5};
        for (int k = 0; k < 4; ++k) {
            aggressions.push_back(r.uniform(0.0, 1.0));
        }
        for (const double tf : factors) {
            const double floor = cell.retention_seconds_scaled(tf, 1.0);
            for (const double a : aggressions) {
                const double retention = cell.retention_seconds_scaled(tf, a);
                ASSERT_GE(retention, floor)
                    << "r=" << cell.retention_at_reference_s
                    << " dpd=" << cell.dpd_strength << " tf=" << tf
                    << " a=" << a;
                for (const double ratio :
                     {1.0, std::nextafter(1.0, 2.0), model.vrt_strong_ratio,
                      r.uniform(1.0, 8.0)}) {
                    ASSERT_GE(retention * ratio, retention) << ratio;
                }
            }
        }
    }
}

TEST(bank_factors_test, normalized_to_one) {
    const auto& factors = bank_systematic_factors();
    double sum = 0.0;
    for (const double f : factors) {
        sum += f;
    }
    EXPECT_NEAR(sum / 8.0, 1.0, 0.002);
    // Bank 3 is the weakest (highest density) per Table I's 60 C row.
    EXPECT_DOUBLE_EQ(*std::max_element(factors.begin(), factors.end()),
                     factors[3]);
}

class sampler_test : public ::testing::Test {
protected:
    weak_cell_sampler sampler_{retention_model{}, xgene2_memory_geometry(),
                               2018};
};

TEST_F(sampler_test, deterministic_per_bank) {
    const auto a = sampler_.sample_bank(0, 0, 0, 0, 5.0);
    const auto b = sampler_.sample_bank(0, 0, 0, 0, 5.0);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(cell_key(a[i].address), cell_key(b[i].address));
        EXPECT_EQ(a[i].retention_at_reference_s,
                  b[i].retention_at_reference_s);
    }
}

TEST_F(sampler_test, banks_have_independent_populations) {
    const auto a = sampler_.sample_bank(0, 0, 0, 0, 5.0);
    const auto b = sampler_.sample_bank(0, 0, 0, 1, 5.0);
    EXPECT_NE(a.size(), 0u);
    bool any_difference = a.size() != b.size();
    for (std::size_t i = 0; !any_difference && i < a.size(); ++i) {
        any_difference = a[i].address.row != b[i].address.row;
    }
    EXPECT_TRUE(any_difference);
}

TEST_F(sampler_test, cells_respect_truncation_threshold) {
    const double threshold = 5.0;
    for (int bank = 0; bank < 8; ++bank) {
        for (const weak_cell& cell :
             sampler_.sample_bank(0, 0, 3, bank, threshold)) {
            EXPECT_LT(cell.retention_at_reference_s, threshold);
            EXPECT_GT(cell.retention_at_reference_s, 0.0F);
            EXPECT_GE(cell.dpd_strength, 0.0F);
            EXPECT_LE(cell.dpd_strength, 0.15F);
        }
    }
}

TEST_F(sampler_test, addresses_in_range) {
    const dram_geometry g = xgene2_memory_geometry();
    for (const weak_cell& cell : sampler_.sample_bank(1, 1, 4, 5, 6.0)) {
        EXPECT_EQ(cell.address.dimm, 1);
        EXPECT_EQ(cell.address.rank, 1);
        EXPECT_EQ(cell.address.chip, 4);
        EXPECT_EQ(cell.address.bank, 5);
        EXPECT_GE(cell.address.row, 0);
        EXPECT_LT(cell.address.row, g.rows_per_bank);
        EXPECT_GE(cell.address.column, 0);
        EXPECT_LT(cell.address.column, g.columns_per_row);
        EXPECT_GE(cell.address.bit, 0);
        EXPECT_LT(cell.address.bit, 8);
    }
}

TEST_F(sampler_test, count_tracks_expected_value) {
    const retention_model model;
    const double threshold = 5.0;
    // Sum over all banks of several chips and compare to the analytic
    // expectation within Poisson tolerance.
    double expected = 0.0;
    std::uint64_t observed = 0;
    for (int chip = 0; chip < 9; ++chip) {
        const double chip_factor = sampler_.chip_factor(0, 0, chip);
        for (int bank = 0; bank < 8; ++bank) {
            expected +=
                model.expected_weak_cells(
                    xgene2_memory_geometry().cells_per_bank(), threshold) *
                bank_systematic_factors()[static_cast<std::size_t>(bank)] *
                chip_factor;
            observed += sampler_.sample_bank(0, 0, chip, bank, threshold)
                            .size();
        }
    }
    EXPECT_NEAR(static_cast<double>(observed), expected,
                5.0 * std::sqrt(expected) + 1.0);
}

TEST_F(sampler_test, chip_factors_vary_but_center_on_one) {
    double sum = 0.0;
    double min_factor = 1e9;
    double max_factor = 0.0;
    int n = 0;
    for (int dimm = 0; dimm < 4; ++dimm) {
        for (int rank = 0; rank < 2; ++rank) {
            for (int chip = 0; chip < 9; ++chip) {
                const double f = sampler_.chip_factor(dimm, rank, chip);
                sum += f;
                min_factor = std::min(min_factor, f);
                max_factor = std::max(max_factor, f);
                ++n;
            }
        }
    }
    EXPECT_NEAR(sum / n, 1.0, 0.15);
    // "Large variation of the number of weak cells across the DRAM chips".
    EXPECT_GT(max_factor / min_factor, 1.5);
}

TEST_F(sampler_test, anti_cell_polarity_balanced) {
    int anti = 0;
    int total = 0;
    for (int chip = 0; chip < 9; ++chip) {
        for (int bank = 0; bank < 8; ++bank) {
            for (const weak_cell& cell :
                 sampler_.sample_bank(2, 0, chip, bank, 6.0)) {
                anti += cell.anti_cell ? 1 : 0;
                ++total;
            }
        }
    }
    ASSERT_GT(total, 200);
    EXPECT_NEAR(static_cast<double>(anti) / total, 0.5, 0.1);
}

} // namespace
} // namespace gb
