// make_xgene2_probe equivalence: the probe bank shares one profile cache
// across its corners and serves each profile's local droop from a memo.
// Neither may change a byte, so every result must be bitwise equal to a
// test-local reference built the straightforward way: one
// characterization framework (and so one profile cache) per corner, and
// assignments that carry no droop memo.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "chip/chip_model.hpp"
#include "chip/corners.hpp"
#include "chip/power.hpp"
#include "fleet/fleet.hpp"
#include "fleet/probe.hpp"
#include "fleet/service.hpp"
#include "harness/framework.hpp"
#include "util/rng.hpp"
#include "workloads/cpu_profiles.hpp"

namespace gb::fleet {
namespace {

/// The probe as written before the shared cache and the memo.
class reference_probe {
public:
    explicit reference_probe(const fleet_spec& spec) : spec_(spec) {
        for (const process_corner corner :
             {process_corner::ttt, process_corner::tff, process_corner::tss}) {
            chips_.push_back(std::make_unique<chip_model>(make_chip(corner),
                                                          make_xgene2_pdn()));
            frameworks_.push_back(
                std::make_unique<characterization_framework>(
                    *chips_.back(),
                    spec.seed + static_cast<std::uint64_t>(corner)));
        }
    }

    probe_result operator()(const probe_request& request) {
        const auto corner_index =
            static_cast<std::size_t>(request.cohort.corner);
        characterization_framework& framework = *frameworks_[corner_index];
        const std::vector<cpu_benchmark>& suite = spec2006_suite();
        const megahertz frequency{nominal_core_frequency.value -
                                  150.0 * request.cohort.operating_point};
        std::vector<core_assignment> assignments;
        for (int core = 0; core < cores_per_chip; ++core) {
            const cpu_benchmark& benchmark =
                suite[(request.cohort.workload_class +
                       static_cast<std::size_t>(core)) %
                      suite.size()];
            assignments.push_back(core_assignment{
                core, &framework.profile_of(benchmark.loop, frequency),
                frequency});
        }
        const chip_model* chip = chips_[corner_index].get();
        std::unique_ptr<chip_model> variant_chip;
        if (request.cohort.variant != 0) {
            rng chip_rng(derive_task_seed(
                spec_.seed + 0x243f6a8885a308d3ULL,
                (static_cast<std::uint64_t>(request.cohort.variant) << 2) |
                    corner_index));
            variant_chip = std::make_unique<chip_model>(
                random_chip(request.cohort.corner, chip_rng),
                make_xgene2_pdn());
            chip = variant_chip.get();
        }
        probe_result result;
        result.requirement_mv =
            chip->analyze(assignments, request.seed).vmin.value + 10.0 +
            static_cast<double>(request.sweep_mv);
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
                    millivolts{bin_voltage_mv(spec_, result.requirement_mv)},
                    celsius{50.0})
                .value;
        result.bucket = static_cast<int>(request.cohort.corner);
        return result;
    }

private:
    fleet_spec spec_;
    std::vector<std::unique_ptr<chip_model>> chips_;
    std::vector<std::unique_ptr<characterization_framework>> frameworks_;
};

probe_request request_of(const fleet_spec& spec, const cohort_key& key,
                         std::int64_t sweep_mv) {
    probe_request request;
    request.cohort = key;
    request.sweep_mv = sweep_mv;
    request.content = probe_content(key, sweep_mv);
    request.seed = derive_task_seed(spec.seed, request.content);
    return request;
}

void expect_bitwise(const probe_result& got, const probe_result& want,
                    const cohort_key& key, std::int64_t sweep_mv) {
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    SCOPED_TRACE(::testing::Message()
                 << "corner " << static_cast<int>(key.corner) << " class "
                 << key.workload_class << " op " << key.operating_point
                 << " variant " << key.variant << " sweep " << sweep_mv);
    EXPECT_EQ(bits(got.requirement_mv), bits(want.requirement_mv));
    EXPECT_EQ(bits(got.power_nominal_w), bits(want.power_nominal_w));
    EXPECT_EQ(bits(got.power_point_w), bits(want.power_point_w));
    EXPECT_EQ(got.bucket, want.bucket);
}

TEST(Xgene2ProbeTest, SharedCacheAndDroopMemoChangeNoByte) {
    fleet_spec spec;
    spec.seed = 77;
    const probe_fn probe = make_xgene2_probe(spec);
    reference_probe reference(spec);
    std::vector<cohort_key> cohorts;
    for (const process_corner corner :
         {process_corner::ttt, process_corner::tff, process_corner::tss}) {
        for (int c = 0; c < spec.workload_classes; ++c) {
            for (int p = 0; p < spec.operating_points; ++p) {
                cohorts.push_back(
                    cohort_key{corner, static_cast<std::uint16_t>(c),
                               static_cast<std::uint16_t>(p), 0});
            }
        }
    }
    ASSERT_EQ(cohorts.size(), 36u);
    // Unique-silicon cohorts: a jittered chip per (corner, variant), with
    // the same local PDN, so they read the same droop memos.
    for (const process_corner corner :
         {process_corner::ttt, process_corner::tff, process_corner::tss}) {
        for (std::uint32_t variant = 1; variant <= 3; ++variant) {
            cohorts.push_back(cohort_key{
                corner, static_cast<std::uint16_t>(variant % 3),
                static_cast<std::uint16_t>(variant), variant});
        }
    }
    for (const std::int64_t sweep_mv : {-20, 0, 15}) {
        for (const cohort_key& key : cohorts) {
            const probe_request request = request_of(spec, key, sweep_mv);
            expect_bitwise(probe(request), reference(request), key, sweep_mv);
        }
    }
}

} // namespace
} // namespace gb::fleet
