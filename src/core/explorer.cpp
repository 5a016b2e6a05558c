#include "core/explorer.hpp"

#include <algorithm>
#include <limits>

#include "harness/execution_engine.hpp"
#include "util/contracts.hpp"
#include "util/log.hpp"

namespace gb {

guardband_explorer::guardband_explorer(characterization_framework& framework)
    : framework_(framework) {}

std::vector<vmin_measurement> guardband_explorer::characterize_suite(
    const std::vector<cpu_benchmark>& suite, int core, int repetitions) {
    GB_EXPECTS(!suite.empty());
    std::vector<vmin_measurement> measurements;
    measurements.reserve(suite.size());
    for (const cpu_benchmark& benchmark : suite) {
        const millivolts vmin = framework_.find_vmin(
            benchmark.loop, {core}, nominal_core_frequency, repetitions);
        measurements.push_back(vmin_measurement{benchmark.name, core, vmin});
        log_info("vmin ", benchmark.name, " core ", core, ": ", vmin.value,
                 " mV");
    }
    return measurements;
}

std::vector<vmin_measurement> guardband_explorer::characterize_cores(
    const cpu_benchmark& benchmark, int repetitions) {
    std::vector<vmin_measurement> measurements;
    measurements.reserve(cores_per_chip);
    for (int core = 0; core < cores_per_chip; ++core) {
        const millivolts vmin = framework_.find_vmin(
            benchmark.loop, {core}, nominal_core_frequency, repetitions);
        measurements.push_back(vmin_measurement{benchmark.name, core, vmin});
    }
    return measurements;
}

int guardband_explorer::most_robust_core(const cpu_benchmark& reference) {
    const std::vector<vmin_measurement> per_core =
        characterize_cores(reference, /*repetitions=*/3);
    const auto best = std::min_element(
        per_core.begin(), per_core.end(),
        [](const vmin_measurement& a, const vmin_measurement& b) {
            return a.vmin < b.vmin;
        });
    return best->core;
}

std::vector<ladder_point> guardband_explorer::dvfs_ladder(
    const std::vector<cpu_benchmark>& mix, megahertz reduced_frequency,
    millivolts guard) {
    GB_EXPECTS(mix.size() == static_cast<std::size_t>(cores_per_chip));
    GB_EXPECTS(reduced_frequency.value > 0.0 &&
               reduced_frequency <= nominal_core_frequency);
    GB_EXPECTS(guard.value >= 0.0);

    const auto requirements_for =
        [&](const std::array<megahertz, 4>& pmd_frequency) {
            std::vector<core_assignment> assignments;
            assignments.reserve(mix.size());
            for (int core = 0; core < cores_per_chip; ++core) {
                const megahertz f = pmd_frequency[static_cast<std::size_t>(
                    core / cores_per_pmd)];
                assignments.push_back(core_assignment{
                    core,
                    &framework_.profile_of(
                        mix[static_cast<std::size_t>(core)].loop, f),
                    f});
            }
            return framework_.chip().core_requirements(assignments,
                                                       /*phase_seed=*/42);
        };

    // Rank PMDs weakest-first from the all-nominal run.
    std::array<megahertz, 4> nominal_frequencies{
        nominal_core_frequency, nominal_core_frequency,
        nominal_core_frequency, nominal_core_frequency};
    const std::vector<vmin_analysis> nominal_reqs =
        requirements_for(nominal_frequencies);
    std::array<double, 4> pmd_requirement_mv{};
    for (const vmin_analysis& req : nominal_reqs) {
        auto& slot = pmd_requirement_mv[static_cast<std::size_t>(
            req.critical_core / cores_per_pmd)];
        slot = std::max(slot, req.vmin.value);
    }
    std::array<int, 4> pmds_by_weakness{0, 1, 2, 3};
    std::sort(pmds_by_weakness.begin(), pmds_by_weakness.end(),
              [&](int a, int b) {
                  return pmd_requirement_mv[static_cast<std::size_t>(a)] >
                         pmd_requirement_mv[static_cast<std::size_t>(b)];
              });

    std::vector<ladder_point> ladder;
    for (int slowed = 0; slowed <= 4; ++slowed) {
        std::array<megahertz, 4> frequencies = nominal_frequencies;
        for (int k = 0; k < slowed; ++k) {
            frequencies[static_cast<std::size_t>(pmds_by_weakness[
                static_cast<std::size_t>(k)])] = reduced_frequency;
        }
        const std::vector<vmin_analysis> reqs = requirements_for(frequencies);
        double chip_vmin_mv = 0.0;
        for (const vmin_analysis& req : reqs) {
            chip_vmin_mv = std::max(chip_vmin_mv, req.vmin.value);
        }

        ladder_point point;
        point.slowed_pmds = slowed;
        double freq_sum = 0.0;
        for (const megahertz f : frequencies) {
            freq_sum += f.value;
        }
        point.relative_performance =
            freq_sum / (4.0 * nominal_core_frequency.value);
        point.voltage = millivolts{chip_vmin_mv} + guard;
        // The paper's projection: dynamic power scales as V^2 times the
        // aggregate frequency (Fig 5's power axis follows (V/Vnom)^2 * perf).
        const double v_ratio = point.voltage / nominal_pmd_voltage;
        point.relative_power =
            v_ratio * v_ratio * point.relative_performance;
        ladder.push_back(point);
    }
    return ladder;
}

refresh_exploration guardband_explorer::explore_refresh(
    memory_system& memory, const std::vector<milliseconds>& ladder,
    std::uint64_t pattern_seed) {
    GB_EXPECTS(!ladder.empty());

    // Every (period, pattern) scan is independent and const against the
    // memory system (the period is a scan parameter), so the whole ladder
    // runs as one engine sweep; the per-period reduction below consumes the
    // scans in submission order, keeping results worker-count-invariant.
    const std::array<data_pattern, 4>& patterns = all_data_patterns();
    std::vector<scan_result> scans(ladder.size() * patterns.size());
    execution_options options;
    options.campaign = "refresh_exploration";
    const execution_engine engine(options);
    engine.run(scans.size(), [&](const task_context& ctx) {
        const milliseconds period = ladder[ctx.index / patterns.size()];
        const data_pattern pattern = patterns[ctx.index % patterns.size()];
        scans[ctx.index] = memory.run_dpbench(pattern, pattern_seed, period);
        return scans[ctx.index].fully_corrected() ? 0 : 1;
    });

    refresh_exploration exploration;
    exploration.max_safe_period = milliseconds{0.0};
    for (std::size_t p = 0; p < ladder.size(); ++p) {
        refresh_step step;
        step.period = ladder[p];
        for (std::size_t i = 0; i < patterns.size(); ++i) {
            const scan_result& scan = scans[p * patterns.size() + i];
            if (scan.failed_cells >= step.worst_scan.failed_cells) {
                step.worst_scan = scan;
            }
            step.fully_corrected =
                step.fully_corrected && scan.fully_corrected();
        }
        if (step.fully_corrected &&
            step.period > exploration.max_safe_period) {
            exploration.max_safe_period = step.period;
        }
        exploration.steps.push_back(step);
    }
    if (exploration.max_safe_period.value == 0.0) {
        exploration.max_safe_period = nominal_refresh_period;
    }
    return exploration;
}

} // namespace gb
