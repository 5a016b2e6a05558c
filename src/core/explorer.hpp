// Guardband exploration: the paper's primary contribution, assembled.
//
// Drives the characterization framework to measure per-core / per-chip /
// per-workload Vmin, builds the frequency-scaling trade-off ladder of Fig 5,
// and explores how far DRAM refresh can be relaxed while ECC still corrects
// every manifested error.  The output of an exploration is a set of 'safe'
// operating points that the exploitation layer (savings.hpp) prices.
#pragma once

#include <string>
#include <vector>

#include "dram/memory_system.hpp"
#include "harness/framework.hpp"
#include "util/units.hpp"
#include "workloads/cpu_profiles.hpp"

namespace gb {

struct vmin_measurement {
    std::string benchmark;
    int core = 0;
    millivolts vmin{0.0};
};

/// One rung of the Fig 5 power/performance ladder: slow the k weakest PMDs
/// to the reduced frequency, lower the shared supply to the new chip Vmin.
struct ladder_point {
    int slowed_pmds = 0;
    double relative_performance = 1.0;
    millivolts voltage{980.0};
    /// Relative power under the paper's projection model (dynamic V^2 f).
    double relative_power = 1.0;
};

/// Result of the DRAM refresh exploration at one temperature.
struct refresh_step {
    milliseconds period{64.0};
    scan_result worst_scan; ///< the pattern with the most failures
    bool fully_corrected = true;
};

struct refresh_exploration {
    std::vector<refresh_step> steps;
    milliseconds max_safe_period{64.0}; ///< largest fully-corrected period
};

class guardband_explorer {
public:
    explicit guardband_explorer(characterization_framework& framework);

    /// Safe Vmin of every benchmark in a suite on one core (Fig 4 rows).
    [[nodiscard]] std::vector<vmin_measurement> characterize_suite(
        const std::vector<cpu_benchmark>& suite, int core,
        int repetitions = 10);

    /// Safe Vmin of one benchmark on each of the 8 cores (core-to-core
    /// variation).
    [[nodiscard]] std::vector<vmin_measurement> characterize_cores(
        const cpu_benchmark& benchmark, int repetitions = 3);

    /// Experimentally determine the most robust core using a reference
    /// benchmark (lowest measured Vmin wins).
    [[nodiscard]] int most_robust_core(const cpu_benchmark& reference);

    /// Build the Fig 5 ladder for a simultaneous mix (benchmark i on core
    /// i): rung k slows the k weakest PMDs to `reduced_frequency` and drops
    /// the supply to the resulting chip requirement (plus `guard`).
    [[nodiscard]] std::vector<ladder_point> dvfs_ladder(
        const std::vector<cpu_benchmark>& mix,
        megahertz reduced_frequency = megahertz{1200.0},
        millivolts guard = millivolts{0.0});

    /// Walk a ladder of refresh periods at the memory's current
    /// temperatures; a period is safe when every DPBench scan is fully
    /// corrected by ECC.
    [[nodiscard]] static refresh_exploration explore_refresh(
        memory_system& memory, const std::vector<milliseconds>& ladder,
        std::uint64_t pattern_seed = 2018);

private:
    characterization_framework& framework_;
};

} // namespace gb
