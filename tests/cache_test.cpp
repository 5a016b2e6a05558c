#include "cache/cache.hpp"
#include "cache/streams.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "util/contracts.hpp"

namespace gb {
namespace {

TEST(cache_config_test, geometry) {
    const cache_config l1{32 * 1024, 64, 8};
    l1.validate();
    EXPECT_EQ(l1.sets(), 64);
    EXPECT_THROW((cache_config{30 * 1024, 64, 8}).validate(),
                 contract_violation);
    EXPECT_THROW((cache_config{32 * 1024, 48, 8}).validate(),
                 contract_violation);
}

TEST(cache_level_test, repeated_access_hits) {
    cache_level cache(cache_config{1024, 64, 2});
    EXPECT_FALSE(cache.access(0, false).hit);
    EXPECT_TRUE(cache.access(0, false).hit);
    EXPECT_TRUE(cache.access(63, false).hit); // same line
    EXPECT_FALSE(cache.access(64, false).hit); // next line
    EXPECT_EQ(cache.accesses(), 4u);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(cache_level_test, lru_eviction_within_set) {
    // 2-way, 8 sets of 64 B lines: addresses 0, 1024, 2048 share set 0.
    cache_level cache(cache_config{1024, 64, 2});
    (void)cache.access(0, false);
    (void)cache.access(1024, false);
    EXPECT_TRUE(cache.contains(0));
    EXPECT_TRUE(cache.contains(1024));
    // Touch 0 so 1024 becomes LRU, then bring in 2048.
    (void)cache.access(0, false);
    const auto result = cache.access(2048, false);
    EXPECT_FALSE(result.hit);
    EXPECT_TRUE(result.evicted_valid);
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(1024));
    EXPECT_TRUE(cache.contains(2048));
}

TEST(cache_level_test, writeback_only_for_dirty_lines) {
    cache_level cache(cache_config{1024, 64, 2});
    (void)cache.access(0, true);      // dirty
    (void)cache.access(1024, false);  // clean
    (void)cache.access(2048, false);  // evicts 0 (LRU, dirty) -> writeback
    EXPECT_EQ(cache.writebacks(), 1u);
    (void)cache.access(3072, false);  // evicts 1024 (clean) -> none
    EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(cache_level_test, working_set_within_capacity_never_misses_twice) {
    cache_level cache(cache_config{32 * 1024, 64, 8});
    // 16 KB working set: after the first lap, everything hits.
    for (int lap = 0; lap < 3; ++lap) {
        for (std::uint64_t a = 0; a < 16 * 1024; a += 64) {
            (void)cache.access(a, false);
        }
    }
    EXPECT_EQ(cache.misses(), 16u * 1024 / 64);
}

TEST(cache_level_test, reset_clears_state) {
    cache_level cache(cache_config{1024, 64, 2});
    (void)cache.access(0, true);
    cache.reset();
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_FALSE(cache.contains(0));
}

TEST(cache_hierarchy_test, xgene2_shape) {
    const cache_hierarchy hierarchy = cache_hierarchy::xgene2();
    EXPECT_EQ(hierarchy.l1().config().size_bytes, 32 * 1024);
    EXPECT_EQ(hierarchy.l2().config().size_bytes, 256 * 1024);
    EXPECT_EQ(hierarchy.l3().config().size_bytes, 8 * 1024 * 1024);
}

TEST(cache_hierarchy_test, miss_fills_all_levels) {
    cache_hierarchy hierarchy = cache_hierarchy::xgene2();
    EXPECT_EQ(hierarchy.access(0, false), hit_level::memory);
    EXPECT_EQ(hierarchy.access(0, false), hit_level::l1);
    EXPECT_TRUE(hierarchy.l2().contains(0));
    EXPECT_TRUE(hierarchy.l3().contains(0));
}

TEST(cache_hierarchy_test, l1_victim_found_in_l2) {
    cache_hierarchy hierarchy = cache_hierarchy::xgene2();
    // A 64 KB chase overflows L1 (32 KB) but sits in L2.
    rng r(1);
    const chase_measurement m = measure_chase(hierarchy, 64 * 1024, 4, r);
    EXPECT_EQ(m.dominant_level, hit_level::l2);
    EXPECT_GT(m.dominant_fraction, 0.8);
}

// The defining experiment: buffer size -> hierarchy level, the paper's
// cache-virus construction rule.
//
// gtest names each case by dumping the struct's bytes. The seven bytes
// after `expected` used to be padding, left uninitialised, so the case
// names changed from one run to the next. They are spelled out here and
// hold the bytes of the names the suite already records.
struct chase_case {
    std::int64_t buffer_bytes;
    hit_level expected;
    std::array<std::uint8_t, 7> name_bytes;
};
static_assert(sizeof(chase_case) == 16, "chase_case must have no padding");

class chase_level_test : public ::testing::TestWithParam<chase_case> {};

TEST_P(chase_level_test, buffer_lands_where_it_fits) {
    EXPECT_EQ(steady_state_level(GetParam().buffer_bytes),
              GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    sizes, chase_level_test,
    ::testing::Values(
        chase_case{16 * 1024, hit_level::l1, {0x00, 0x04}},
        chase_case{24 * 1024, hit_level::l1, {0xFF, 0x70}},
        chase_case{64 * 1024, hit_level::l2, {}},
        chase_case{192 * 1024, hit_level::l2, {}},
        chase_case{1024 * 1024, hit_level::l3, {0x00, 0x04}},
        chase_case{6 * 1024 * 1024, hit_level::l3, {0xDA, 0x55}},
        chase_case{32 * 1024 * 1024, hit_level::memory, {}}));

TEST(chase_kernel_test, kernels_match_measured_level) {
    EXPECT_EQ(make_pointer_chase_kernel(16 * 1024).body.front(),
              opcode::load_l1);
    EXPECT_EQ(make_pointer_chase_kernel(128 * 1024).body.front(),
              opcode::load_l2);
    EXPECT_EQ(make_pointer_chase_kernel(2 * 1024 * 1024).body.front(),
              opcode::load_l3);
    EXPECT_EQ(make_pointer_chase_kernel(64 * 1024 * 1024).body.front(),
              opcode::load_dram);
    EXPECT_EQ(make_pointer_chase_kernel(16 * 1024, 8).body.size(), 8u);
}

TEST(chase_test, latency_monotonic_in_buffer_size) {
    rng r(2);
    double last = 0.0;
    for (const std::int64_t bytes :
         {16 * 1024, 128 * 1024, 2 * 1024 * 1024, 64 * 1024 * 1024}) {
        cache_hierarchy hierarchy = cache_hierarchy::xgene2();
        const chase_measurement m = measure_chase(hierarchy, bytes, 3, r);
        EXPECT_GT(m.average_latency_cycles, last);
        last = m.average_latency_cycles;
    }
}

TEST(chase_test, order_visits_every_line_once) {
    rng r(3);
    const std::vector<std::uint64_t> order = make_chase_order(4096, 64, r);
    EXPECT_EQ(order.size(), 64u);
    std::vector<std::uint64_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        EXPECT_EQ(sorted[i], i * 64);
    }
}

TEST(sequential_sweep_test, spatial_locality_through_lines) {
    cache_hierarchy hierarchy = cache_hierarchy::xgene2();
    // 8-byte stride through 64-byte lines: 7 of 8 accesses hit L1.
    const double rate =
        sequential_sweep_l1_hit_rate(hierarchy, 64 * 1024 * 1024);
    EXPECT_NEAR(rate, 7.0 / 8.0, 0.01);
}

TEST(latency_cycles_test, matches_isa_stall_model) {
    EXPECT_EQ(cache_hierarchy::latency_cycles(hit_level::l1), 1);
    EXPECT_EQ(cache_hierarchy::latency_cycles(hit_level::l2), 8);
    EXPECT_EQ(cache_hierarchy::latency_cycles(hit_level::l3), 29);
    EXPECT_EQ(cache_hierarchy::latency_cycles(hit_level::memory), 181);
}

} // namespace
} // namespace gb
