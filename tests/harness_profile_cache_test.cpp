// Profile cache and local-droop memo: exactness and lifetime.
//
// The memo serves `pdn_model::worst_droop` values from beside each cached
// profile.  It is only correct if (a) the served value is bitwise the one
// the convolution produces for that profile and local PDN, (b) a memo
// never outlives its profile -- a recreated cache whose profiles land at
// the freed addresses must recompute, since a different local PDN gives a
// different droop -- and (c) concurrent first touches from engine workers
// agree (run this suite under GB_SANITIZE=thread for the race half).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "chip/chip_model.hpp"
#include "chip/corners.hpp"
#include "harness/execution_engine.hpp"
#include "harness/profile_cache.hpp"
#include "pdn/pdn.hpp"
#include "workloads/cpu_profiles.hpp"

namespace gb {
namespace {

std::uint64_t bits(millivolts v) {
    return std::bit_cast<std::uint64_t>(v.value);
}

millivolts direct_droop(const pdn_parameters& local_pdn,
                        const execution_profile& profile) {
    return pdn_model(local_pdn, nominal_pmd_voltage, nominal_core_frequency)
        .worst_droop(profile.current_trace);
}

/// A second local loop: same resonance, a third less decap.
pdn_parameters other_local_pdn() {
    return pdn_parameters::for_resonance(50.0e6, 0.08, 0.33e-6);
}

/// The four operating points of the fleet probe (nominal - 150 MHz * p).
std::vector<megahertz> operating_points() {
    return {megahertz{2400.0}, megahertz{2250.0}, megahertz{2100.0},
            megahertz{1950.0}};
}

/// Bitwise equality of two analyses.
void expect_same(const vmin_analysis& a, const vmin_analysis& b) {
    EXPECT_EQ(bits(a.vmin), bits(b.vmin));
    EXPECT_EQ(bits(a.droop), bits(b.droop));
    EXPECT_EQ(bits(a.droop_effective), bits(b.droop_effective));
    EXPECT_EQ(a.path, b.path);
    EXPECT_EQ(a.critical_core, b.critical_core);
}

TEST(ProfileCacheTest, OneEntryPerKernelAndFrequency) {
    profile_cache cache;
    const kernel& milc = find_cpu_benchmark("milc").loop;
    const cached_profile& a = cache.get(milc, nominal_core_frequency);
    EXPECT_EQ(&a, &cache.get(milc, nominal_core_frequency));
    EXPECT_NE(&a, &cache.get(milc, megahertz{1950.0}));
    const core_assignment on = a.on_core(5, nominal_core_frequency);
    EXPECT_EQ(on.core, 5);
    EXPECT_EQ(on.profile, &a.profile);
    EXPECT_EQ(on.local_droop, &a.local_droop);
}

TEST(ProfileCacheTest, MemoBitwiseEqualsWorstDroopForEverySuiteLoop) {
    // One cache shared by two chips with different local loops: each
    // profile's memo holds one value per loop, each bitwise the direct
    // convolution, and every analysis matches a memo-free one.
    profile_cache cache;
    const std::vector<pdn_parameters> loops{make_xgene2_pdn(),
                                            other_local_pdn()};
    std::vector<chip_model> chips;
    for (const pdn_parameters& loop : loops) {
        chips.emplace_back(make_ttt_chip(), loop);
    }
    // The two loops really disagree, so a crossed memo would show.
    const execution_profile& milc =
        cache.get(find_cpu_benchmark("milc").loop, nominal_core_frequency)
            .profile;
    ASSERT_NE(bits(direct_droop(loops[0], milc)),
              bits(direct_droop(loops[1], milc)));
    for (const cpu_benchmark& b : spec2006_suite()) {
        for (const megahertz f : operating_points()) {
            const cached_profile& entry = cache.get(b.loop, f);
            for (std::size_t i = 0; i < loops.size(); ++i) {
                EXPECT_FALSE(entry.local_droop.find(loops[i]).has_value());
                const core_assignment memoized[] = {entry.on_core(2, f),
                                                    entry.on_core(6, f)};
                const core_assignment plain[] = {
                    {2, &entry.profile, f}, {6, &entry.profile, f}};
                // First call fills the memo, the second reads it.
                const vmin_analysis filled = chips[i].analyze(memoized, 7);
                const vmin_analysis served = chips[i].analyze(memoized, 7);
                const vmin_analysis reference = chips[i].analyze(plain, 7);
                expect_same(filled, reference);
                expect_same(served, reference);
                const std::optional<millivolts> memo =
                    entry.local_droop.find(loops[i]);
                ASSERT_TRUE(memo.has_value()) << b.name;
                EXPECT_EQ(bits(*memo),
                          bits(direct_droop(loops[i], entry.profile)))
                    << b.name << " at " << f.value << " MHz, loop " << i;
            }
        }
    }
}

TEST(ProfileCacheTest, RecreatedCacheWithAnotherLocalPdnRecomputes) {
    // The fig4 shape: create a chip and a cache, use them, destroy both,
    // and create the next pair -- whose profiles may reuse the freed
    // addresses -- with another local loop.  Every round must read its
    // own loop's droop, never the previous round's.
    const kernel& loop = find_cpu_benchmark("namd").loop;
    for (int round = 0; round < 6; ++round) {
        const pdn_parameters local =
            round % 2 == 0 ? make_xgene2_pdn() : other_local_pdn();
        const pdn_parameters previous =
            round % 2 == 0 ? other_local_pdn() : make_xgene2_pdn();
        auto cache = std::make_unique<profile_cache>();
        auto chip = std::make_unique<chip_model>(make_tss_chip(), local);
        const cached_profile& entry =
            cache->get(loop, nominal_core_frequency);
        EXPECT_FALSE(entry.local_droop.find(local).has_value());
        EXPECT_FALSE(entry.local_droop.find(previous).has_value());
        const core_assignment memoized[] = {
            entry.on_core(0, nominal_core_frequency)};
        const core_assignment plain[] = {
            {0, &entry.profile, nominal_core_frequency}};
        expect_same(chip->analyze(memoized, 3), chip->analyze(plain, 3));
        const std::optional<millivolts> memo =
            entry.local_droop.find(local);
        ASSERT_TRUE(memo.has_value());
        EXPECT_EQ(bits(*memo), bits(direct_droop(local, entry.profile)));
        EXPECT_FALSE(entry.local_droop.find(previous).has_value());
    }
}

TEST(ProfileCacheTest, FirstTouchRaceFromEngineWorkersAgrees) {
    // Every engine task asks a fresh cache for the same few profiles and
    // analyzes them at once, so profiling and the memo's first touch race
    // across workers.  Every task must read the memo-free analysis.
    const chip_model chip(make_tff_chip(), make_xgene2_pdn());
    const std::vector<cpu_benchmark>& suite = spec2006_suite();
    std::vector<vmin_analysis> reference;
    {
        profile_cache scratch;
        for (std::size_t k = 0; k < 3; ++k) {
            const cached_profile& entry =
                scratch.get(suite[k].loop, nominal_core_frequency);
            const core_assignment plain[] = {
                {1, &entry.profile, nominal_core_frequency}};
            reference.push_back(chip.analyze(plain, 11));
        }
    }
    for (const int workers : {4, 8}) {
        profile_cache cache;
        constexpr std::size_t tasks = 48;
        std::vector<vmin_analysis> got(tasks);
        execution_options options;
        options.workers = workers;
        const execution_engine engine(options);
        (void)engine.run(tasks, [&](const task_context& ctx) {
            const std::size_t k = ctx.index % 3;
            const cached_profile& entry =
                cache.get(suite[k].loop, nominal_core_frequency);
            const core_assignment memoized[] = {
                entry.on_core(1, nominal_core_frequency)};
            got[ctx.index] = chip.analyze(memoized, 11);
            return 0;
        });
        for (std::size_t i = 0; i < tasks; ++i) {
            expect_same(got[i], reference[i % 3]);
        }
    }
}

} // namespace
} // namespace gb
