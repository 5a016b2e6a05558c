#include "dram/profiling.hpp"

#include <gtest/gtest.h>

#include "util/contracts.hpp"

namespace gb {
namespace {

memory_system make_memory(double vrt_fraction = 0.0) {
    retention_model model;
    model.vrt_fraction = vrt_fraction;
    memory_system memory(single_dimm_geometry(), model, 2018,
                         study_limits{});
    memory.set_temperature(celsius{60.0});
    memory.set_refresh_period(milliseconds{2283.0});
    return memory;
}

TEST(profiling_test, ground_truth_matches_weak_cell_counts) {
    const memory_system memory = make_memory();
    const dram_geometry& g = memory.geometry();
    std::uint64_t population = 0;
    for (int rank = 0; rank < g.ranks_per_dimm; ++rank) {
        for (int chip = 0; chip < g.chips_per_rank(); ++chip) {
            for (int bank = 0; bank < g.banks_per_chip; ++bank) {
                population += memory.weak_cell_count(0, rank, chip, bank);
            }
        }
    }
    EXPECT_EQ(population,
              profile_weak_cells(memory, 1, data_pattern::random_data, 1)
                  .ground_truth);
    EXPECT_GT(population, 500u);
}

TEST(profiling_test, cumulative_is_monotonic_and_consistent) {
    const memory_system memory = make_memory();
    const profiling_result result =
        profile_weak_cells(memory, 12, data_pattern::random_data, 7);
    ASSERT_EQ(result.rounds.size(), 12u);
    std::uint64_t last = 0;
    for (const profiling_round& round : result.rounds) {
        EXPECT_GE(round.cumulative, last);
        EXPECT_LE(round.discovered, round.observed);
        last = round.cumulative;
    }
    EXPECT_EQ(result.rounds.front().discovered,
              result.rounds.front().observed);
}

TEST(profiling_test, random_rounds_keep_discovering) {
    const memory_system memory = make_memory();
    const profiling_result result =
        profile_weak_cells(memory, 10, data_pattern::random_data, 7);
    // Later rounds still find new cells (fresh data = fresh vulnerability
    // and aggression draws) ...
    std::uint64_t late_discoveries = 0;
    for (std::size_t i = 5; i < result.rounds.size(); ++i) {
        late_discoveries += result.rounds[i].discovered;
    }
    EXPECT_GT(late_discoveries, 0u);
    // ... and coverage grows well beyond a single round's.
    EXPECT_GT(result.rounds.back().cumulative,
              static_cast<std::uint64_t>(
                  1.5 * static_cast<double>(result.rounds[0].cumulative)));
}

TEST(profiling_test, solid_pattern_saturates_immediately) {
    const memory_system memory = make_memory();
    const profiling_result result =
        profile_weak_cells(memory, 5, data_pattern::all_zeros, 7);
    // Solid data is identical every round: nothing new after round 0.
    for (std::size_t i = 1; i < result.rounds.size(); ++i) {
        EXPECT_EQ(result.rounds[i].discovered, 0u);
    }
}

TEST(profiling_test, random_coverage_beats_solid_coverage) {
    const memory_system memory = make_memory();
    const profiling_result random =
        profile_weak_cells(memory, 8, data_pattern::random_data, 7);
    const profiling_result solid =
        profile_weak_cells(memory, 8, data_pattern::all_zeros, 7);
    EXPECT_GT(random.coverage(), solid.coverage());
    EXPECT_LE(random.coverage(), 1.0);
}

TEST(profiling_test, coverage_never_complete_in_few_rounds) {
    // The worst-case population includes cells needing aggression beyond
    // what a handful of random draws exert: profiling undershoots.
    const memory_system memory = make_memory();
    const profiling_result result =
        profile_weak_cells(memory, 6, data_pattern::random_data, 7);
    EXPECT_LT(result.coverage(), 0.999);
}

TEST(profiling_test, vrt_cells_toggle_between_scans) {
    const memory_system memory = make_memory(/*vrt_fraction=*/0.3);
    // With VRT on, consecutive scans of the same solid pattern disagree on
    // some locations (cells in the strong state this scan).
    const auto scan1 =
        memory.failing_cell_keys(data_pattern::all_zeros, 1);
    const auto scan2 =
        memory.failing_cell_keys(data_pattern::all_zeros, 2);
    EXPECT_NE(scan1.size(), 0u);
    EXPECT_NE(scan1, scan2);
    // And solid-pattern profiling now keeps discovering across rounds.
    const profiling_result result =
        profile_weak_cells(memory, 6, data_pattern::all_zeros, 1);
    std::uint64_t late = 0;
    for (std::size_t i = 1; i < result.rounds.size(); ++i) {
        late += result.rounds[i].discovered;
    }
    EXPECT_GT(late, 0u);
}

TEST(profiling_test, vrt_off_keeps_scans_deterministic) {
    const memory_system memory = make_memory(0.0);
    EXPECT_EQ(memory.failing_cell_keys(data_pattern::all_zeros, 1),
              memory.failing_cell_keys(data_pattern::all_zeros, 2));
}

TEST(profiling_test, requires_at_least_one_round) {
    const memory_system memory = make_memory();
    EXPECT_THROW(
        (void)profile_weak_cells(memory, 0, data_pattern::random_data, 1),
        contract_violation);
}

} // namespace
} // namespace gb
