#include "util/fft.hpp"

#include <cmath>
#include <numbers>

#include "util/contracts.hpp"

namespace gb {

namespace {

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

} // namespace

void fft(std::vector<std::complex<double>>& data) {
    const std::size_t n = data.size();
    GB_EXPECTS(is_power_of_two(n));

    // Bit-reversal permutation.
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1) {
            j ^= bit;
        }
        j ^= bit;
        if (i < j) {
            std::swap(data[i], data[j]);
        }
    }

    for (std::size_t len = 2; len <= n; len <<= 1) {
        const double angle = -2.0 * std::numbers::pi /
                             static_cast<double>(len);
        const std::complex<double> wlen(std::cos(angle), std::sin(angle));
        for (std::size_t start = 0; start < n; start += len) {
            std::complex<double> w(1.0, 0.0);
            for (std::size_t k = 0; k < len / 2; ++k) {
                const std::complex<double> even = data[start + k];
                const std::complex<double> odd = data[start + k + len / 2] * w;
                data[start + k] = even + odd;
                data[start + k + len / 2] = even - odd;
                w *= wlen;
            }
        }
    }
}

double goertzel(std::span<const double> signal, double cycles_per_sample) {
    GB_EXPECTS(!signal.empty());
    GB_EXPECTS(cycles_per_sample >= 0.0 && cycles_per_sample <= 0.5);
    const double omega = 2.0 * std::numbers::pi * cycles_per_sample;
    const double coeff = 2.0 * std::cos(omega);
    double s_prev = 0.0;
    double s_prev2 = 0.0;
    for (const double x : signal) {
        const double s = x + coeff * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    const double power =
        s_prev * s_prev + s_prev2 * s_prev2 - coeff * s_prev * s_prev2;
    return std::sqrt(std::max(power, 0.0));
}

} // namespace gb
