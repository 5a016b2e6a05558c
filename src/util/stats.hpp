// Small statistics toolkit used throughout the characterization pipeline:
// running summary statistics, percentiles, and ordinary least squares for the
// Vmin predictor (paper ref [11] trains a workload-dependent model on
// performance counters).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace gb {

/// Incremental mean and extrema (Welford's mean update).
class running_stats {
public:
    void add(double x);

    [[nodiscard]] std::size_t count() const { return n_; }
    [[nodiscard]] double mean() const;
    [[nodiscard]] double min() const;
    [[nodiscard]] double max() const;

private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Percentile with linear interpolation; q in [0, 1].  Copies and sorts.
[[nodiscard]] double percentile(std::span<const double> values, double q);

/// Midpoint median of a non-empty sample: the middle element for odd counts,
/// the mean `(a + b) / 2` of the two middle elements for even counts.
/// Copies and sorts.  This exact form (not percentile(values, 0.5), which
/// rounds `a * (1-f) + b * f` differently in the last ulp) is what the perf
/// baselines publish as `wall.*` gauges, so it is pinned here and unit-tested
/// for both parities.
[[nodiscard]] double median(std::span<const double> values);

/// Quantile with linear interpolation, pinned to the midpoint form
/// `(a + b) / 2` whenever the interpolation fraction is exactly one half,
/// so `quantile(values, 0.5) == median(values)` bit-for-bit at both
/// parities (percentile() rounds that case differently in the last ulp).
/// The perf baselines publish `wall.*_p95_ms` through this.  q in [0, 1];
/// copies and sorts.
[[nodiscard]] double quantile(std::span<const double> values, double q);

/// The baseline schema's named quantile (`wall.*_p95_ms`).
[[nodiscard]] double p95(std::span<const double> values);

/// Arithmetic mean of a non-empty span.
[[nodiscard]] double mean(std::span<const double> values);

/// Sample standard deviation of a span with >= 2 elements.
[[nodiscard]] double stddev(std::span<const double> values);

/// Standard normal CDF.
[[nodiscard]] double normal_cdf(double z);

/// Inverse standard normal CDF (Acklam's rational approximation, refined by
/// one Halley step; |error| < 1e-12 over (0, 1)).  Used to sample the deep
/// retention-time tail of DRAM cells by inverse transform.
[[nodiscard]] double inverse_normal_cdf(double p);

/// Result of an ordinary-least-squares fit y ~ X * beta.
struct ols_fit {
    std::vector<double> coefficients; ///< one per feature column
    double intercept = 0.0;
    double r_squared = 0.0;

    /// Predicted value for one feature vector.
    [[nodiscard]] double predict(std::span<const double> features) const;
};

/// Fit y = intercept + X * beta by solving the normal equations with
/// Gaussian elimination (partial pivoting).  `rows` holds one feature vector
/// per observation; all rows must have the same dimension and there must be
/// more observations than features.
[[nodiscard]] ols_fit fit_ols(std::span<const std::vector<double>> rows,
                              std::span<const double> y);

} // namespace gb
