// Spectral analysis primitives.  Two consumers:
//   * gb_em uses the Goertzel probe to measure radiated amplitude at the PDN
//     resonance (the GA fitness in the paper's EM-guided virus generation);
//   * the jammer-detector application computes FFT spectrograms of IQ samples.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace gb {

/// In-place iterative radix-2 Cooley-Tukey FFT.  Size must be a power of two.
void fft(std::vector<std::complex<double>>& data);

/// Goertzel algorithm: single-bin DFT magnitude of `signal` at normalized
/// frequency `cycles_per_sample` in [0, 0.5].  O(N) per probe, exact bin-free
/// frequency, which is what an EM probe tuned to the PDN resonance sees.
[[nodiscard]] double goertzel(std::span<const double> signal,
                              double cycles_per_sample);

} // namespace gb
