#include "dram/scrubbing.hpp"

#include <gtest/gtest.h>

#include "util/contracts.hpp"
#include "util/wire.hpp"

namespace gb {
namespace {

memory_system make_memory() {
    // At the 60 C study point the Table-I-calibrated density keeps even
    // unscrubbed accumulation collision-free (the paper's "all corrected"
    // has headroom); the scrubbing question becomes material on a hotter,
    // denser, VRT-afflicted part.
    retention_model model;
    model.density_scale *= 12.0;
    model.vrt_fraction = 0.9;
    // Real VRT cells spend most windows in the strong state: that is what
    // makes same-window coincidences (which scrubbing cannot prevent) far
    // rarer than eventual accumulation (which it does prevent).
    model.vrt_weak_probability = 0.05;
    memory_system memory(single_dimm_geometry(), model, 2018,
                         study_limits{celsius{72.0}, milliseconds{2283.0}});
    memory.set_temperature(celsius{70.0});
    memory.set_refresh_period(milliseconds{2283.0});
    return memory;
}

// FNV-1a over every field of every point.  The expected digests below were
// produced by the hash-set grouping that analyze_scrub_intervals used
// before it grouped by sorting, so they pin its counts exactly.
std::uint64_t digest(const std::vector<scrub_analysis_point>& points) {
    std::uint64_t hash = fnv1a_basis;
    for (const scrub_analysis_point& point : points) {
        hash = fnv1a_word(hash,
                          static_cast<std::uint64_t>(point.scrub_every_epochs));
        hash = fnv1a_word(hash, point.uncorrectable_words);
        hash = fnv1a_word(hash, point.scrub_corrections);
    }
    return hash;
}

TEST(scrubbing_test, accumulation_without_scrub_creates_ue_risk) {
    const memory_system memory = make_memory();
    const std::vector<scrub_analysis_point> points =
        analyze_scrub_intervals(memory, 40, {0, 1}, 7);
    ASSERT_EQ(points.size(), 2u);
    // Never scrubbing accumulates VRT failures across 40 windows: a pair is
    // defeated once both members have gone weak at some point.  Scrubbing
    // every window limits exposure to same-window weak coincidences.
    EXPECT_GT(points[0].uncorrectable_words,
              2 * points[1].uncorrectable_words);
    EXPECT_GT(points[0].uncorrectable_words, 15u);
    EXPECT_EQ(digest(points), 2341218419486706390ULL);
}

TEST(scrubbing_test, ue_risk_monotonic_in_cadence) {
    const memory_system memory = make_memory();
    const std::vector<scrub_analysis_point> points =
        analyze_scrub_intervals(memory, 40, {1, 5, 10, 20, 0}, 7);
    for (std::size_t i = 1; i < points.size(); ++i) {
        EXPECT_GE(points[i].uncorrectable_words,
                  points[i - 1].uncorrectable_words)
            << "cadence " << points[i].scrub_every_epochs;
    }
    EXPECT_EQ(digest(points), 9345141538802632065ULL);
}

TEST(scrubbing_test, scrubber_performs_corrections) {
    const memory_system memory = make_memory();
    const std::vector<scrub_analysis_point> points =
        analyze_scrub_intervals(memory, 20, {5}, 7);
    EXPECT_GT(points[0].scrub_corrections, 0u);
    EXPECT_EQ(digest(points), 8795559147941633834ULL);
}

TEST(scrubbing_test, deterministic_in_seed) {
    const memory_system memory = make_memory();
    const auto a = analyze_scrub_intervals(memory, 10, {2}, 3);
    const auto b = analyze_scrub_intervals(memory, 10, {2}, 3);
    EXPECT_EQ(a[0].uncorrectable_words, b[0].uncorrectable_words);
    EXPECT_EQ(a[0].scrub_corrections, b[0].scrub_corrections);
    EXPECT_EQ(digest(a), 2762370145810208667ULL);
}

TEST(scrubbing_test, validates_inputs) {
    const memory_system memory = make_memory();
    EXPECT_THROW((void)analyze_scrub_intervals(memory, 0, {1}, 1),
                 contract_violation);
    EXPECT_THROW((void)analyze_scrub_intervals(memory, 10, {}, 1),
                 contract_violation);
    EXPECT_THROW((void)analyze_scrub_intervals(memory, 10, {-1}, 1),
                 contract_violation);
}

} // namespace
} // namespace gb
