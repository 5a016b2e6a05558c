#include "dram/memory_system.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/contracts.hpp"
#include "util/wire.hpp"

namespace gb {
namespace {

class memory_system_test : public ::testing::Test {
protected:
    // Full 72-chip system: with the sparse Table-I-calibrated density this
    // is only a few tens of thousands of cells.
    memory_system memory_{xgene2_memory_geometry(), retention_model{}, 2018,
                          study_limits{}};
};

TEST_F(memory_system_test, nominal_refresh_produces_no_errors) {
    memory_.set_temperature(celsius{60.0});
    // 64 ms nominal: even the weakest materialized cell holds its charge.
    for (const data_pattern pattern : all_data_patterns()) {
        const scan_result scan = memory_.run_dpbench(pattern, 1);
        EXPECT_EQ(scan.failed_cells, 0u) << to_string(pattern);
        EXPECT_EQ(scan.affected_words, 0u);
    }
}

TEST_F(memory_system_test, relaxed_refresh_exposes_weak_cells) {
    memory_.set_temperature(celsius{60.0});
    memory_.set_refresh_period(milliseconds{2283.0});
    const scan_result scan = memory_.run_dpbench(data_pattern::random_data, 1);
    EXPECT_GT(scan.failed_cells, 1000u);
    EXPECT_GT(scan.bit_error_rate(), 0.0);
}

TEST_F(memory_system_test, errors_grow_with_refresh_period) {
    memory_.set_temperature(celsius{60.0});
    std::uint64_t last = 0;
    for (const double period_ms : {500.0, 1000.0, 2283.0}) {
        memory_.set_refresh_period(milliseconds{period_ms});
        const scan_result scan =
            memory_.run_dpbench(data_pattern::random_data, 1);
        EXPECT_GT(scan.failed_cells, last);
        last = scan.failed_cells;
    }
}

TEST_F(memory_system_test, errors_grow_with_temperature) {
    memory_.set_refresh_period(milliseconds{2283.0});
    memory_.set_temperature(celsius{50.0});
    const scan_result cool = memory_.run_dpbench(data_pattern::random_data, 1);
    memory_.set_temperature(celsius{60.0});
    const scan_result hot = memory_.run_dpbench(data_pattern::random_data, 1);
    // Table I: roughly 18x more weak cells at 60 C.
    EXPECT_GT(hot.failed_cells, 10 * cool.failed_cells);
}

TEST_F(memory_system_test, ecc_corrects_everything_at_study_point) {
    // The paper's headline DRAM result: at <= 60 C and 35x refresh, all
    // manifested errors are corrected by the SECDED ECC.
    memory_.set_temperature(celsius{60.0});
    memory_.set_refresh_period(milliseconds{2283.0});
    for (const data_pattern pattern : all_data_patterns()) {
        const scan_result scan = memory_.run_dpbench(pattern, 2018);
        EXPECT_TRUE(scan.fully_corrected()) << to_string(pattern);
        EXPECT_EQ(scan.ce_words + scan.ue_words + scan.sdc_words,
                  scan.affected_words);
        EXPECT_EQ(scan.ce_words, scan.affected_words);
    }
}

TEST_F(memory_system_test, random_pattern_is_worst) {
    memory_.set_temperature(celsius{60.0});
    memory_.set_refresh_period(milliseconds{2283.0});
    const std::uint64_t random =
        memory_.run_dpbench(data_pattern::random_data, 7).failed_cells;
    for (const data_pattern pattern :
         {data_pattern::all_zeros, data_pattern::all_ones,
          data_pattern::checkerboard}) {
        EXPECT_GT(random, memory_.run_dpbench(pattern, 7).failed_cells)
            << to_string(pattern);
    }
}

TEST_F(memory_system_test, table1_band_at_both_temperatures) {
    memory_.set_refresh_period(milliseconds{2283.0});
    const auto per_bank_totals = [&] {
        std::array<std::uint64_t, 8> totals{};
        for (int d = 0; d < 4; ++d) {
            for (int r = 0; r < 2; ++r) {
                for (int c = 0; c < 9; ++c) {
                    for (int b = 0; b < 8; ++b) {
                        totals[static_cast<std::size_t>(b)] +=
                            memory_.weak_cell_count(d, r, c, b);
                    }
                }
            }
        }
        return totals;
    };
    memory_.set_temperature(celsius{50.0});
    for (const std::uint64_t count : per_bank_totals()) {
        EXPECT_GT(count, 120u);
        EXPECT_LT(count, 300u);
    }
    memory_.set_temperature(celsius{60.0});
    for (const std::uint64_t count : per_bank_totals()) {
        EXPECT_GT(count, 2800u);
        EXPECT_LT(count, 4500u);
    }
}

TEST_F(memory_system_test, per_dimm_temperatures_are_independent) {
    memory_.set_refresh_period(milliseconds{2283.0});
    memory_.set_temperature(celsius{50.0});
    memory_.set_dimm_temperature(0, celsius{60.0});
    EXPECT_DOUBLE_EQ(memory_.dimm_temperature(0).value, 60.0);
    EXPECT_DOUBLE_EQ(memory_.dimm_temperature(1).value, 50.0);
    std::uint64_t hot_dimm = 0;
    std::uint64_t cool_dimm = 0;
    for (int r = 0; r < 2; ++r) {
        for (int c = 0; c < 9; ++c) {
            for (int b = 0; b < 8; ++b) {
                hot_dimm += memory_.weak_cell_count(0, r, c, b);
                cool_dimm += memory_.weak_cell_count(1, r, c, b);
            }
        }
    }
    EXPECT_GT(hot_dimm, 5 * cool_dimm);
}

TEST_F(memory_system_test, access_profile_refresh_fraction_reduces_errors) {
    memory_.set_temperature(celsius{60.0});
    memory_.set_refresh_period(milliseconds{2283.0});
    access_profile cold{1.0, 0.0, 0.5};
    access_profile mostly_refreshed{1.0, 0.9, 0.5};
    const scan_result cold_scan = memory_.run_access_profile(cold, 5);
    const scan_result warm_scan =
        memory_.run_access_profile(mostly_refreshed, 5);
    EXPECT_GT(cold_scan.failed_cells, 5 * warm_scan.failed_cells);
}

TEST_F(memory_system_test, footprint_scales_denominator_and_failures) {
    memory_.set_temperature(celsius{60.0});
    memory_.set_refresh_period(milliseconds{2283.0});
    access_profile full{1.0, 0.0, 0.5};
    access_profile half{0.5, 0.0, 0.5};
    const scan_result full_scan = memory_.run_access_profile(full, 9);
    const scan_result half_scan = memory_.run_access_profile(half, 9);
    EXPECT_EQ(half_scan.scanned_bits * 2, full_scan.scanned_bits);
    EXPECT_NEAR(static_cast<double>(half_scan.failed_cells),
                static_cast<double>(full_scan.failed_cells) / 2.0,
                0.15 * static_cast<double>(full_scan.failed_cells));
    // Footprint-relative BER stays roughly constant.
    EXPECT_NEAR(half_scan.bit_error_rate() / full_scan.bit_error_rate(), 1.0,
                0.3);
}

TEST_F(memory_system_test, application_ber_below_random_dpbench) {
    // "Real workloads incur less BER than the virus based on random
    // DPBench" -- implicit refresh plus application data statistics.
    memory_.set_temperature(celsius{60.0});
    memory_.set_refresh_period(milliseconds{2283.0});
    const double dpbench_ber =
        memory_.run_dpbench(data_pattern::random_data, 11).bit_error_rate();
    const access_profile app{0.5, 0.3, 0.5};
    EXPECT_LT(memory_.run_access_profile(app, 11).bit_error_rate(),
              dpbench_ber);
}

TEST_F(memory_system_test, scan_is_deterministic_for_same_seed) {
    memory_.set_temperature(celsius{60.0});
    memory_.set_refresh_period(milliseconds{2283.0});
    const scan_result a = memory_.run_dpbench(data_pattern::random_data, 3);
    const scan_result b = memory_.run_dpbench(data_pattern::random_data, 3);
    EXPECT_EQ(a.failed_cells, b.failed_cells);
    EXPECT_EQ(a.ce_words, b.ce_words);
    const scan_result c = memory_.run_dpbench(data_pattern::random_data, 4);
    EXPECT_NE(a.failed_cells, c.failed_cells);
}

TEST_F(memory_system_test, per_bank_failures_sum_to_total) {
    memory_.set_temperature(celsius{60.0});
    memory_.set_refresh_period(milliseconds{2283.0});
    const scan_result scan = memory_.run_dpbench(data_pattern::checkerboard,
                                                 6);
    std::uint64_t sum = 0;
    for (const std::uint64_t count : scan.per_bank_failures) {
        sum += count;
    }
    EXPECT_EQ(sum, scan.failed_cells);
}

TEST_F(memory_system_test, limits_are_enforced) {
    EXPECT_THROW(memory_.set_refresh_period(milliseconds{3000.0}),
                 contract_violation);
    EXPECT_THROW(memory_.set_dimm_temperature(0, celsius{80.0}),
                 contract_violation);
    EXPECT_THROW(memory_.set_dimm_temperature(7, celsius{50.0}),
                 contract_violation);
}

TEST(memory_system_study_limits_test, wider_limits_materialize_more) {
    const memory_system narrow(single_dimm_geometry(), retention_model{},
                               2018, study_limits{});
    const memory_system wide(
        single_dimm_geometry(), retention_model{}, 2018,
        study_limits{celsius{70.0}, milliseconds{4566.0}});
    EXPECT_GT(wide.total_weak_cells(), 3 * narrow.total_weak_cells());
}

TEST(memory_system_seed_test, different_seeds_different_populations) {
    const memory_system a(single_dimm_geometry(), retention_model{}, 1,
                          study_limits{});
    const memory_system b(single_dimm_geometry(), retention_model{}, 2,
                          study_limits{});
    EXPECT_NE(a.total_weak_cells(), b.total_weak_cells());
}

// ---------------------------------------------------------------------------
// Byte pins for the two scans without a reference twin.  run_access_profile
// and failing_cell_keys are digested over a sweep of refresh periods,
// application profiles, VRT populations and per-DIMM temperatures; the
// expected digests were produced by scans that evaluated every materialized
// cell, so any cell the retention-floor skip drops must be one that could
// not fail.

/// A full-system memory with VRT fraction `vrt_fraction` and distinct
/// per-DIMM temperatures (so each DIMM has its own retention floor).
memory_system pinned_memory(double vrt_fraction) {
    retention_model model;
    model.vrt_fraction = vrt_fraction;
    memory_system memory(xgene2_memory_geometry(), model, 2018,
                         study_limits{});
    const std::array<double, 4> dimm_celsius{47.0, 52.0, 56.0, 60.0};
    for (int dimm = 0; dimm < memory.geometry().dimms; ++dimm) {
        memory.set_dimm_temperature(
            dimm, celsius{dimm_celsius[static_cast<std::size_t>(dimm % 4)]});
    }
    return memory;
}

std::uint64_t fold_scan(std::uint64_t hash, const scan_result& scan) {
    hash = fnv1a_word(hash, scan.failed_cells);
    hash = fnv1a_word(hash, scan.affected_words);
    hash = fnv1a_word(hash, scan.ce_words);
    hash = fnv1a_word(hash, scan.ue_words);
    hash = fnv1a_word(hash, scan.sdc_words);
    hash = fnv1a_word(hash, static_cast<std::uint64_t>(scan.scanned_bits));
    for (const std::uint64_t count : scan.per_bank_failures) {
        hash = fnv1a_word(hash, count);
    }
    return hash;
}

std::string access_profile_digest(double vrt_fraction) {
    memory_system memory = pinned_memory(vrt_fraction);
    const std::array<access_profile, 5> profiles{{{1.0, 0.0, 0.5},
                                                  {0.6, 0.3, 0.2},
                                                  {0.25, 0.8, 0.9},
                                                  {1.0, 0.5, 0.0},
                                                  {0.8, 0.1, 1.0}}};
    std::uint64_t hash = fnv1a_basis;
    for (const double period_ms : {64.0, 1300.0, 2283.0}) {
        memory.set_refresh_period(milliseconds{period_ms});
        for (const access_profile& app : profiles) {
            for (const std::uint64_t seed : {5ULL, 2018ULL}) {
                hash = fold_scan(hash, memory.run_access_profile(app, seed));
            }
        }
    }
    return format_hex(hash);
}

std::string failing_keys_digest(double vrt_fraction) {
    memory_system memory = pinned_memory(vrt_fraction);
    std::uint64_t hash = fnv1a_basis;
    for (const double period_ms : {64.0, 1300.0, 2283.0}) {
        memory.set_refresh_period(milliseconds{period_ms});
        for (const data_pattern pattern : all_data_patterns()) {
            for (const std::uint64_t vrt_seed : {17ULL, 99ULL, 12345ULL}) {
                // Digested in output (bank-major) order: the pin holds the
                // order as well as the set.
                const std::vector<std::uint64_t> keys =
                    memory.failing_cell_keys(pattern, 17, vrt_seed);
                hash = fnv1a_word(hash, keys.size());
                for (const std::uint64_t key : keys) {
                    hash = fnv1a_word(hash, key);
                }
            }
        }
    }
    return format_hex(hash);
}

TEST(DramScanPinTest, AccessProfileScansArePinned) {
    EXPECT_EQ(access_profile_digest(0.0), "baa6a3ce8f8b2e19");
    EXPECT_EQ(access_profile_digest(0.3), "6e75713e9483ad6e");
}

TEST(DramScanPinTest, FailingCellKeysArePinned) {
    EXPECT_EQ(failing_keys_digest(0.0), "7ccac3baf8f4306b");
    EXPECT_EQ(failing_keys_digest(0.3), "60971af5f2890557");
}

} // namespace
} // namespace gb
