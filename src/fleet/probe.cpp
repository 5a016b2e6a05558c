#include "fleet/probe.hpp"

#include <memory>
#include <vector>

#include "chip/chip_model.hpp"
#include "chip/power.hpp"
#include "harness/profile_cache.hpp"
#include "util/rng.hpp"
#include "workloads/cpu_profiles.hpp"

namespace gb::fleet {

namespace {

/// Shared state behind one probe_fn.  A profile depends on (kernel,
/// frequency) only, and every chip of the bank -- variants included --
/// has the same local PDN, so one concurrent-safe profile cache
/// (profile_cache.hpp) serves all corners, and each profile's local-droop
/// memo is computed once for the bank's lifetime.  Everything else is
/// read-only after construction.
struct probe_bank {
    fleet_spec spec;
    std::vector<std::unique_ptr<chip_model>> chips;
    profile_cache profiles;
};

constexpr double mhz_per_operating_point = 150.0;
constexpr double deployment_guard_mv = 10.0;

} // namespace

probe_fn make_xgene2_probe(const fleet_spec& spec) {
    auto bank = std::make_shared<probe_bank>();
    bank->spec = spec;
    for (const process_corner corner :
         {process_corner::ttt, process_corner::tff, process_corner::tss}) {
        bank->chips.push_back(std::make_unique<chip_model>(
            make_chip(corner), make_xgene2_pdn()));
    }
    return [bank](const probe_request& request) {
        const auto corner_index =
            static_cast<std::size_t>(request.cohort.corner);
        const std::vector<cpu_benchmark>& suite = spec2006_suite();

        const megahertz frequency{
            nominal_core_frequency.value -
            mhz_per_operating_point * request.cohort.operating_point};
        std::vector<core_assignment> assignments;
        assignments.reserve(cores_per_chip);
        for (int core = 0; core < cores_per_chip; ++core) {
            const cpu_benchmark& benchmark =
                suite[(request.cohort.workload_class +
                       static_cast<std::size_t>(core)) %
                      suite.size()];
            assignments.push_back(
                bank->profiles.get(benchmark.loop, frequency)
                    .on_core(core, frequency));
        }

        // Unique-silicon cohorts analyze a jittered chip of the corner;
        // the chip derives from (spec seed, corner, variant) only, so the
        // same cohort sees the same silicon at every sweep point.
        const chip_model* chip = bank->chips[corner_index].get();
        std::unique_ptr<chip_model> variant_chip;
        if (request.cohort.variant != 0) {
            rng chip_rng(derive_task_seed(
                bank->spec.seed + 0x243f6a8885a308d3ULL,
                (static_cast<std::uint64_t>(request.cohort.variant) << 2) |
                    corner_index));
            variant_chip = std::make_unique<chip_model>(
                random_chip(request.cohort.corner, chip_rng),
                make_xgene2_pdn());
            chip = variant_chip.get();
        }

        probe_result result;
        result.requirement_mv =
            chip->analyze(assignments, request.seed).vmin.value +
            deployment_guard_mv + static_cast<double>(request.sweep_mv);
        const cpu_power_model power;
        result.power_nominal_w =
            power
                .pmd_domain_power(chip->config(), assignments,
                                  nominal_pmd_voltage, celsius{50.0})
                .value;
        result.power_point_w =
            power
                .pmd_domain_power(
                    chip->config(), assignments,
                    millivolts{bin_voltage_mv(bank->spec,
                                              result.requirement_mv)},
                    celsius{50.0})
                .value;
        result.bucket = static_cast<int>(request.cohort.corner);
        return result;
    };
}

} // namespace gb::fleet
