#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace gb {
namespace {

TEST(running_stats_test, basic_moments) {
    running_stats s;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
        s.add(x);
    }
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(running_stats_test, single_value_extrema) {
    running_stats s;
    s.add(-3.5);
    EXPECT_DOUBLE_EQ(s.mean(), -3.5);
    EXPECT_DOUBLE_EQ(s.min(), -3.5);
    EXPECT_DOUBLE_EQ(s.max(), -3.5);
}

TEST(running_stats_test, preconditions) {
    running_stats s;
    EXPECT_THROW((void)s.mean(), contract_violation);
    EXPECT_THROW((void)s.min(), contract_violation);
    EXPECT_THROW((void)s.max(), contract_violation);
}

TEST(percentile_test, interpolation) {
    const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.5);
}

TEST(percentile_test, unsorted_input) {
    const std::vector<double> v{9.0, 1.0, 5.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.5), 5.0);
}

TEST(percentile_test, empty_throws) {
    const std::vector<double> v;
    EXPECT_THROW((void)percentile(v, 0.5), contract_violation);
}

TEST(median_test, odd_count_is_middle_element) {
    EXPECT_DOUBLE_EQ(median(std::vector<double>{7.0}), 7.0);
    EXPECT_DOUBLE_EQ(median(std::vector<double>{9.0, 1.0, 5.0}), 5.0);
    EXPECT_DOUBLE_EQ(median(std::vector<double>{5.0, 4.0, 3.0, 2.0, 1.0}),
                     3.0);
}

TEST(median_test, even_count_is_midpoint_of_middle_pair) {
    EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0}), 2.5);
    EXPECT_DOUBLE_EQ(median(std::vector<double>{1.0, 2.0, 3.0, 4.0}), 2.5);
    // Unsorted input with duplicates: the two middle elements of the sorted
    // order are 3 and 5.
    EXPECT_DOUBLE_EQ(median(std::vector<double>{5.0, 3.0, 1.0, 3.0, 9.0, 5.0}),
                     4.0);
}

TEST(median_test, matches_wall_gauge_estimator_on_samples) {
    // The baseline reporter publishes exactly this midpoint form for its
    // wall.* gauges; pin the arithmetic on a realistic sample set.
    const std::vector<double> odd{814.3, 811.9, 816.0};
    EXPECT_DOUBLE_EQ(median(odd), 814.3);
    const std::vector<double> even{814.3, 811.9, 816.0, 812.2};
    EXPECT_DOUBLE_EQ(median(even), (812.2 + 814.3) / 2.0);
}

TEST(median_test, empty_throws) {
    const std::vector<double> v;
    EXPECT_THROW((void)median(v), contract_violation);
}

TEST(quantile_test, endpoints_and_interpolation) {
    const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(quantile(v, 0.25), 1.75);
    EXPECT_DOUBLE_EQ(quantile(v, 0.95), 3.85);
}

TEST(quantile_test, matches_median_bit_for_bit_at_half) {
    // Property: quantile(v, 0.5) == median(v) exactly at both parities,
    // because quantile() pins the midpoint form whenever the interpolation
    // fraction is exactly one half (percentile() does not).
    rng r(7);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<double> v;
        const int n = 1 + static_cast<int>(r.uniform(0.0, 20.0));
        for (int i = 0; i < n; ++i) {
            v.push_back(r.uniform(-1000.0, 1000.0));
        }
        EXPECT_EQ(quantile(v, 0.5), median(v)) << "n=" << n;
    }
}

TEST(quantile_test, monotone_in_q) {
    // Property: for fixed values, quantile is non-decreasing in q.
    rng r(11);
    std::vector<double> v;
    for (int i = 0; i < 17; ++i) {
        v.push_back(r.uniform(0.0, 100.0));
    }
    double prev = quantile(v, 0.0);
    for (double q = 0.05; q <= 1.0 + 1e-12; q += 0.05) {
        const double cur = quantile(v, std::min(q, 1.0));
        EXPECT_GE(cur, prev) << "q=" << q;
        prev = cur;
    }
}

TEST(quantile_test, bounded_by_extrema_and_order_invariant) {
    // Properties: every quantile lies within [min, max], and the estimate
    // is invariant under permutation of the input.
    rng r(13);
    std::vector<double> v;
    for (int i = 0; i < 23; ++i) {
        v.push_back(r.uniform(-50.0, 50.0));
    }
    std::vector<double> shuffled = v;
    std::reverse(shuffled.begin(), shuffled.end());
    const double lo = *std::min_element(v.begin(), v.end());
    const double hi = *std::max_element(v.begin(), v.end());
    for (const double q : {0.0, 0.01, 0.5, 0.77, 0.95, 0.99, 1.0}) {
        EXPECT_GE(quantile(v, q), lo);
        EXPECT_LE(quantile(v, q), hi);
        EXPECT_EQ(quantile(v, q), quantile(shuffled, q));
    }
}

TEST(quantile_test, named_quantiles_delegate) {
    const std::vector<double> v{10.0, 20.0, 30.0, 40.0, 50.0};
    EXPECT_EQ(p95(v), quantile(v, 0.95));
    EXPECT_DOUBLE_EQ(p95(v), 48.0);
    // Single sample: the quantile collapses to it.
    const std::vector<double> one{42.0};
    EXPECT_DOUBLE_EQ(p95(one), 42.0);
}

TEST(quantile_test, empty_and_out_of_range_throw) {
    const std::vector<double> v{1.0};
    EXPECT_THROW((void)quantile(std::vector<double>{}, 0.5),
                 contract_violation);
    EXPECT_THROW((void)quantile(v, -0.1), contract_violation);
    EXPECT_THROW((void)quantile(v, 1.1), contract_violation);
}

TEST(mean_stddev_test, simple) {
    const std::vector<double> v{1.0, 3.0};
    EXPECT_DOUBLE_EQ(mean(v), 2.0);
    EXPECT_NEAR(stddev(v), std::sqrt(2.0), 1e-12);
}

TEST(normal_cdf_test, known_values) {
    EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-9);
    EXPECT_NEAR(normal_cdf(-1.96), 0.024997895, 1e-6);
}

class inverse_cdf_test : public ::testing::TestWithParam<double> {};

TEST_P(inverse_cdf_test, roundtrip) {
    const double p = GetParam();
    const double z = inverse_normal_cdf(p);
    EXPECT_NEAR(normal_cdf(z), p, 1e-10 + 1e-6 * p);
}

INSTANTIATE_TEST_SUITE_P(probabilities, inverse_cdf_test,
                         ::testing::Values(1e-12, 1e-9, 3.6e-7, 1e-4, 0.02,
                                           0.25, 0.5, 0.77, 0.99, 1.0 - 1e-9));

TEST(inverse_cdf_test, rejects_out_of_range) {
    EXPECT_THROW((void)inverse_normal_cdf(0.0), contract_violation);
    EXPECT_THROW((void)inverse_normal_cdf(1.0), contract_violation);
}

TEST(ols_test, exact_linear_recovery) {
    // y = 3 + 2 x1 - 0.5 x2, noiseless.
    std::vector<std::vector<double>> rows;
    std::vector<double> y;
    rng r(1);
    for (int i = 0; i < 30; ++i) {
        const double x1 = r.uniform(-5.0, 5.0);
        const double x2 = r.uniform(0.0, 10.0);
        rows.push_back({x1, x2});
        y.push_back(3.0 + 2.0 * x1 - 0.5 * x2);
    }
    const ols_fit fit = fit_ols(rows, y);
    EXPECT_NEAR(fit.intercept, 3.0, 1e-8);
    EXPECT_NEAR(fit.coefficients[0], 2.0, 1e-8);
    EXPECT_NEAR(fit.coefficients[1], -0.5, 1e-8);
    EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(ols_test, noisy_fit_reasonable) {
    std::vector<std::vector<double>> rows;
    std::vector<double> y;
    rng r(2);
    for (int i = 0; i < 200; ++i) {
        const double x = r.uniform(0.0, 1.0);
        rows.push_back({x});
        y.push_back(1.0 + 4.0 * x + r.normal(0.0, 0.1));
    }
    const ols_fit fit = fit_ols(rows, y);
    EXPECT_NEAR(fit.coefficients[0], 4.0, 0.15);
    EXPECT_GT(fit.r_squared, 0.9);
}

TEST(ols_test, predict_matches_model) {
    const ols_fit fit{{2.0, -1.0}, 5.0, 1.0};
    const std::vector<double> x{3.0, 4.0};
    EXPECT_DOUBLE_EQ(fit.predict(x), 5.0 + 6.0 - 4.0);
}

TEST(ols_test, requires_more_observations_than_features) {
    std::vector<std::vector<double>> rows{{1.0, 2.0}, {2.0, 1.0}};
    std::vector<double> y{1.0, 2.0};
    EXPECT_THROW((void)fit_ols(rows, y), contract_violation);
}

TEST(ols_test, dimension_mismatch_throws) {
    std::vector<std::vector<double>> rows{{1.0}, {2.0, 3.0}, {4.0}};
    std::vector<double> y{1.0, 2.0, 3.0};
    EXPECT_THROW((void)fit_ols(rows, y), contract_violation);
}

} // namespace
} // namespace gb
