#include "util/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace gb {
namespace {

TEST(fft_test, roundtrip_recovers_signal) {
    rng r(1);
    std::vector<std::complex<double>> data(256);
    std::vector<std::complex<double>> original(256);
    for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = {r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0)};
        original[i] = data[i];
    }
    // The inverse through the forward transform: conj(fft(conj(X))) / N.
    fft(data);
    for (auto& x : data) {
        x = std::conj(x);
    }
    fft(data);
    for (auto& x : data) {
        x = std::conj(x) / static_cast<double>(data.size());
    }
    for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_NEAR(data[i].real(), original[i].real(), 1e-10);
        EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-10);
    }
}

TEST(fft_test, impulse_has_flat_spectrum) {
    std::vector<std::complex<double>> data(64, {0.0, 0.0});
    data[0] = {1.0, 0.0};
    fft(data);
    for (const auto& bin : data) {
        EXPECT_NEAR(std::abs(bin), 1.0, 1e-12);
    }
}

TEST(fft_test, parseval_energy_conservation) {
    rng r(2);
    std::vector<std::complex<double>> data(128);
    double time_energy = 0.0;
    for (auto& x : data) {
        x = {r.normal(), r.normal()};
        time_energy += std::norm(x);
    }
    fft(data);
    double freq_energy = 0.0;
    for (const auto& x : data) {
        freq_energy += std::norm(x);
    }
    EXPECT_NEAR(freq_energy / static_cast<double>(data.size()), time_energy,
                1e-8 * time_energy);
}

TEST(fft_test, sine_concentrates_in_one_bin) {
    const std::size_t n = 512;
    const std::size_t k = 37;
    std::vector<std::complex<double>> data(n);
    for (std::size_t i = 0; i < n; ++i) {
        data[i] = {std::sin(2.0 * std::numbers::pi * static_cast<double>(k) *
                            static_cast<double>(i) / static_cast<double>(n)),
                   0.0};
    }
    fft(data);
    EXPECT_NEAR(std::abs(data[k]), static_cast<double>(n) / 2.0, 1e-8);
    EXPECT_NEAR(std::abs(data[n - k]), static_cast<double>(n) / 2.0, 1e-8);
    EXPECT_NEAR(std::abs(data[k + 3]), 0.0, 1e-8);
}

TEST(fft_test, non_power_of_two_throws) {
    std::vector<std::complex<double>> data(100);
    EXPECT_THROW(fft(data), contract_violation);
}

class goertzel_test : public ::testing::TestWithParam<double> {};

TEST_P(goertzel_test, matches_dft_bin_for_sine) {
    const double f = GetParam(); // cycles per sample
    const std::size_t n = 1024;
    std::vector<double> signal(n);
    for (std::size_t i = 0; i < n; ++i) {
        signal[i] =
            std::cos(2.0 * std::numbers::pi * f * static_cast<double>(i));
    }
    const double amp = goertzel(signal, f);
    // A unit cosine probed at its own frequency yields ~n/2.
    EXPECT_NEAR(amp, static_cast<double>(n) / 2.0,
                0.03 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(frequencies, goertzel_test,
                         ::testing::Values(1.0 / 48.0, 0.05, 0.125, 0.25,
                                           0.4));

TEST(goertzel_test, off_frequency_is_small) {
    const std::size_t n = 4800; // whole number of 48-sample periods
    std::vector<double> signal(n);
    for (std::size_t i = 0; i < n; ++i) {
        signal[i] = std::cos(2.0 * std::numbers::pi *
                             static_cast<double>(i) / 48.0);
    }
    const double on = goertzel(signal, 1.0 / 48.0);
    const double off = goertzel(signal, 1.0 / 11.0);
    EXPECT_GT(on, 50.0 * off);
}

TEST(goertzel_test, rejects_bad_frequency) {
    std::vector<double> signal(16, 0.0);
    EXPECT_THROW((void)goertzel(signal, 0.6), contract_violation);
    EXPECT_THROW((void)goertzel(signal, -0.1), contract_violation);
}

} // namespace
} // namespace gb
