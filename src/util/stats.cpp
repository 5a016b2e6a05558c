#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/contracts.hpp"

namespace gb {

void running_stats::add(double x) {
    if (n_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    mean_ += (x - mean_) / static_cast<double>(n_);
}

double running_stats::mean() const {
    GB_EXPECTS(n_ > 0);
    return mean_;
}

double running_stats::min() const {
    GB_EXPECTS(n_ > 0);
    return min_;
}

double running_stats::max() const {
    GB_EXPECTS(n_ > 0);
    return max_;
}

double percentile(std::span<const double> values, double q) {
    GB_EXPECTS(!values.empty());
    GB_EXPECTS(q >= 0.0 && q <= 1.0);
    std::vector<double> sorted(values.begin(), values.end());
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::span<const double> values) {
    GB_EXPECTS(!values.empty());
    std::vector<double> sorted(values.begin(), values.end());
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    return n % 2 == 1 ? sorted[n / 2]
                      : (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0;
}

double quantile(std::span<const double> values, double q) {
    GB_EXPECTS(!values.empty());
    GB_EXPECTS(q >= 0.0 && q <= 1.0);
    std::vector<double> sorted(values.begin(), values.end());
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    if (frac == 0.5) {
        return (sorted[lo] + sorted[hi]) / 2.0;
    }
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double p95(std::span<const double> values) { return quantile(values, 0.95); }

double mean(std::span<const double> values) {
    GB_EXPECTS(!values.empty());
    double sum = 0.0;
    for (const double v : values) {
        sum += v;
    }
    return sum / static_cast<double>(values.size());
}

double stddev(std::span<const double> values) {
    GB_EXPECTS(values.size() >= 2);
    const double m = mean(values);
    double m2 = 0.0;
    for (const double v : values) {
        m2 += (v - m) * (v - m);
    }
    return std::sqrt(m2 / static_cast<double>(values.size() - 1));
}

double normal_cdf(double z) {
    return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

double inverse_normal_cdf(double p) {
    GB_EXPECTS(p > 0.0 && p < 1.0);
    // Acklam's rational approximation in three regions.
    static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                   -2.759285104469687e+02, 1.383577518672690e+02,
                                   -3.066479806614716e+01, 2.506628277459239e+00};
    static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                   -1.556989798598866e+02, 6.680131188771972e+01,
                                   -1.328068155288572e+01};
    static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                   -2.400758277161838e+00, -2.549732539343734e+00,
                                   4.374664141464968e+00,  2.938163982698783e+00};
    static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                   2.445134137142996e+00, 3.754408661907416e+00};
    constexpr double p_low = 0.02425;

    double x = 0.0;
    if (p < p_low) {
        const double q = std::sqrt(-2.0 * std::log(p));
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    } else if (p <= 1.0 - p_low) {
        const double q = p - 0.5;
        const double r = q * q;
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
             a[5]) *
            q /
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r +
             1.0);
    } else {
        const double q = std::sqrt(-2.0 * std::log(1.0 - p));
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
              c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }

    // One Halley refinement step against the true CDF.
    const double e = normal_cdf(x) - p;
    const double u = e * std::sqrt(2.0 * std::numbers::pi) *
                     std::exp(x * x / 2.0);
    x = x - u / (1.0 + x * u / 2.0);
    return x;
}

double ols_fit::predict(std::span<const double> features) const {
    GB_EXPECTS(features.size() == coefficients.size());
    double y = intercept;
    for (std::size_t i = 0; i < features.size(); ++i) {
        y += coefficients[i] * features[i];
    }
    return y;
}

namespace {

/// Solve A x = b in place by Gaussian elimination with partial pivoting.
std::vector<double> solve_linear(std::vector<std::vector<double>> a,
                                 std::vector<double> b) {
    const std::size_t n = a.size();
    for (std::size_t col = 0; col < n; ++col) {
        std::size_t pivot = col;
        for (std::size_t row = col + 1; row < n; ++row) {
            if (std::abs(a[row][col]) > std::abs(a[pivot][col])) {
                pivot = row;
            }
        }
        GB_ASSERT(std::abs(a[pivot][col]) > 1e-12);
        std::swap(a[col], a[pivot]);
        std::swap(b[col], b[pivot]);
        for (std::size_t row = col + 1; row < n; ++row) {
            const double factor = a[row][col] / a[col][col];
            for (std::size_t k = col; k < n; ++k) {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    std::vector<double> x(n, 0.0);
    for (std::size_t i = n; i-- > 0;) {
        double sum = b[i];
        for (std::size_t k = i + 1; k < n; ++k) {
            sum -= a[i][k] * x[k];
        }
        x[i] = sum / a[i][i];
    }
    return x;
}

} // namespace

ols_fit fit_ols(std::span<const std::vector<double>> rows,
                std::span<const double> y) {
    GB_EXPECTS(!rows.empty());
    GB_EXPECTS(rows.size() == y.size());
    const std::size_t dim = rows.front().size();
    for (const auto& row : rows) {
        GB_EXPECTS(row.size() == dim);
    }
    GB_EXPECTS(rows.size() > dim);

    // Augment with a constant column for the intercept and form the normal
    // equations (X^T X) beta = X^T y.
    const std::size_t n = dim + 1;
    std::vector<std::vector<double>> xtx(n, std::vector<double>(n, 0.0));
    std::vector<double> xty(n, 0.0);
    for (std::size_t obs = 0; obs < rows.size(); ++obs) {
        std::vector<double> x(n, 1.0);
        std::copy(rows[obs].begin(), rows[obs].end(), x.begin());
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                xtx[i][j] += x[i] * x[j];
            }
            xty[i] += x[i] * y[obs];
        }
    }
    const std::vector<double> beta = solve_linear(std::move(xtx),
                                                  std::move(xty));

    ols_fit fit;
    fit.coefficients.assign(beta.begin(), beta.begin() +
                                              static_cast<std::ptrdiff_t>(dim));
    fit.intercept = beta[dim];

    // R^2 against the mean model.
    const double y_mean = mean(y);
    double ss_res = 0.0;
    double ss_tot = 0.0;
    for (std::size_t obs = 0; obs < rows.size(); ++obs) {
        const double pred = fit.predict(rows[obs]);
        ss_res += (y[obs] - pred) * (y[obs] - pred);
        ss_tot += (y[obs] - y_mean) * (y[obs] - y_mean);
    }
    fit.r_squared = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
    return fit;
}

} // namespace gb
