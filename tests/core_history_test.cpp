#include "core/history.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace gb {
namespace {

TEST(history_test, records_and_reports_extrema) {
    droop_history history(64);
    for (const double v : {900.0, 910.0, 905.0, 920.0}) {
        history.record(millivolts{v});
    }
    EXPECT_EQ(history.size(), 4u);
    EXPECT_DOUBLE_EQ(history.max_requirement().value, 920.0);
    EXPECT_DOUBLE_EQ(history.quantile(1.0).value, 920.0);
    EXPECT_DOUBLE_EQ(history.quantile(0.0).value, 900.0);
}

TEST(history_test, ring_buffer_evicts_oldest) {
    droop_history history(16);
    for (int i = 0; i < 16; ++i) {
        history.record(millivolts{800.0});
    }
    // A burst of 16 new values fully replaces the old ones.
    for (int i = 0; i < 16; ++i) {
        history.record(millivolts{900.0});
    }
    EXPECT_EQ(history.size(), 16u);
    EXPECT_DOUBLE_EQ(history.quantile(0.0).value, 900.0);
}

TEST(history_test, empirical_exceedance) {
    droop_history history(128);
    for (int i = 0; i < 100; ++i) {
        history.record(millivolts{900.0 + static_cast<double>(i % 10)});
    }
    // Targets no rarer than one sample invert the empirical distribution:
    // 10% of values are 909, so the 10% floor is the 90th percentile,
    // interpolated between the sorted values 908 and 909.
    EXPECT_NEAR(history.voltage_for_failure_probability(0.1).value, 908.1,
                1e-9);
    EXPECT_DOUBLE_EQ(history.voltage_for_failure_probability(0.01).value,
                     history.quantile(0.99).value);
}

TEST(history_test, tail_extrapolation_beyond_sample) {
    droop_history history(512);
    rng r(3);
    for (int i = 0; i < 500; ++i) {
        // Exponential-ish requirement tail above 900.
        history.record(millivolts{900.0 - 5.0 * std::log(r.uniform() + 1e-12)});
    }
    // Targets rarer than one sample extrapolate the exponential tail past
    // the observed maximum, further for rarer targets, never to infinity.
    const double rare = history.voltage_for_failure_probability(1e-4).value;
    const double rarer = history.voltage_for_failure_probability(1e-6).value;
    EXPECT_GT(rare, history.max_requirement().value);
    EXPECT_GT(rarer, rare);
    EXPECT_TRUE(std::isfinite(rarer));
}

TEST(history_test, voltage_for_failure_probability_inverts) {
    droop_history history(512);
    rng r(4);
    for (int i = 0; i < 400; ++i) {
        history.record(millivolts{880.0 + 20.0 * r.uniform()});
    }
    const millivolts v1 = history.voltage_for_failure_probability(0.1);
    const millivolts v2 = history.voltage_for_failure_probability(0.01);
    const millivolts v3 = history.voltage_for_failure_probability(1e-4);
    EXPECT_LT(v1, v2);
    EXPECT_LT(v2, v3);
    // The rarer-than-sample target must sit at or above the observed max.
    EXPECT_GE(v3, history.max_requirement());
}

TEST(history_test, degenerate_history_steps_at_max) {
    droop_history history(32);
    for (int i = 0; i < 20; ++i) {
        history.record(millivolts{905.0});
    }
    for (const double target : {0.5, 0.1, 1e-4}) {
        EXPECT_DOUBLE_EQ(
            history.voltage_for_failure_probability(target).value, 905.0);
    }
}

TEST(history_test, clear_forgets_storm_era_requirements) {
    droop_history history(64);
    for (int i = 0; i < 40; ++i) {
        history.record(millivolts{960.0}); // storm-pinned requirements
    }
    EXPECT_DOUBLE_EQ(
        history.voltage_for_failure_probability(1e-3).value, 960.0);

    history.clear();
    EXPECT_TRUE(history.empty());
    EXPECT_EQ(history.size(), 0u);
    // Cleared history behaves like a fresh one: quantiles are again a
    // contract violation until new samples arrive ...
    EXPECT_THROW((void)history.quantile(0.5), contract_violation);
    // ... and new, calmer samples fully determine the floor.
    for (int i = 0; i < 40; ++i) {
        history.record(millivolts{905.0});
    }
    EXPECT_DOUBLE_EQ(
        history.voltage_for_failure_probability(1e-3).value, 905.0);
    EXPECT_DOUBLE_EQ(history.max_requirement().value, 905.0);
}

TEST(history_test, single_sample_inversion_is_degenerate_step) {
    // One epoch of history: the empirical distribution is a point mass, and
    // inversion must neither divide by a zero spread nor extrapolate a tail
    // from nothing.
    droop_history history(32);
    history.record(millivolts{912.0});
    EXPECT_DOUBLE_EQ(history.max_requirement().value, 912.0);
    EXPECT_DOUBLE_EQ(history.quantile(0.0).value, 912.0);
    EXPECT_DOUBLE_EQ(history.quantile(1.0).value, 912.0);
    // Inversion collapses onto the only observation, however rare the
    // target; the step happens *at* the max, so the conservative answer is
    // the max itself rather than a divide-by-zero tail.
    for (const double target : {0.5, 1e-2, 1e-6}) {
        EXPECT_DOUBLE_EQ(
            history.voltage_for_failure_probability(target).value, 912.0);
    }
}

TEST(history_test, preconditions) {
    EXPECT_THROW(droop_history(4), contract_violation);
    droop_history history(32);
    EXPECT_THROW(history.record(millivolts{0.0}), contract_violation);
    EXPECT_THROW((void)history.quantile(0.5), contract_violation);
    EXPECT_THROW((void)history.voltage_for_failure_probability(0.0),
                 contract_violation);
    history.record(millivolts{900.0});
    EXPECT_THROW((void)history.voltage_for_failure_probability(1.0),
                 contract_violation);
}

} // namespace
} // namespace gb
