// Deterministic pseudo-random number generation for reproducible
// characterization runs.  xoshiro256** for the stream, splitmix64 for seeding
// and for deriving independent child streams from (seed, label) pairs so that
// e.g. every DRAM chip gets its own stable stream regardless of simulation
// order.
//
// Thread safety: there is no global or static generator state anywhere in
// this module -- every `rng` instance is self-contained, so distinct
// instances may be used from distinct threads freely.  A single instance is
// not synchronized; the parallel campaign engine gives every task its own
// instance seeded from (base_seed, task_index) instead of sharing one.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "util/contracts.hpp"

namespace gb {

/// splitmix64 step: the standard seeding/stream-splitting mixer.  Inline:
/// per-node derivations (fleet/fleet.hpp) call it in their hot loops.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// Stable 64-bit hash of a label, for deriving named child streams.
[[nodiscard]] std::uint64_t hash_label(std::string_view label);

/// xoshiro256** generator.  Satisfies UniformRandomBitGenerator.
class rng {
public:
    using result_type = std::uint64_t;

    explicit rng(std::uint64_t seed);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~std::uint64_t{0}; }

    result_type operator()();

    /// Derive an independent child stream identified by a label.  Children of
    /// the same (parent seed, label) are identical across runs.
    [[nodiscard]] rng child(std::string_view label) const;
    [[nodiscard]] rng child(std::uint64_t index) const;

    /// Uniform double in [0, 1).
    [[nodiscard]] double uniform();
    /// Uniform double in [lo, hi).
    [[nodiscard]] double uniform(double lo, double hi);
    /// Uniform integer in [0, n).  Requires n > 0.
    [[nodiscard]] std::uint64_t uniform_index(std::uint64_t n);
    /// Standard normal via Box-Muller (no cached spare: keeps streams simple).
    [[nodiscard]] double normal();
    /// Normal with the given mean and standard deviation.
    [[nodiscard]] double normal(double mean, double stddev);
    /// Lognormal: exp(normal(mu, sigma)).
    [[nodiscard]] double lognormal(double mu, double sigma);
    /// Poisson-distributed count (Knuth for small lambda, normal approx above).
    [[nodiscard]] std::uint64_t poisson(double lambda);
    /// True with probability p.
    [[nodiscard]] bool bernoulli(double p);

    /// Pick a uniformly random element of a non-empty span.
    template <typename T>
    [[nodiscard]] const T& pick(std::span<const T> items) {
        GB_EXPECTS(!items.empty());
        return items[uniform_index(items.size())];
    }

private:
    std::uint64_t seed_;     // retained for child derivation
    std::uint64_t state_[4];
};

} // namespace gb
