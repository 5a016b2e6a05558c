// Execution phase of the characterization framework: runs campaigns against
// a chip model, emulating the watchdog/reset path of the real rig (a crashed
// or hung run trips the watchdog monitor, the board is power-cycled, and the
// campaign continues with the next run).
//
// Campaigns and Vmin searches enumerate their sweep grids into flat task
// lists and run on the deterministic parallel execution engine
// (execution_engine.hpp): every (setup, repetition) cell draws its noise
// from a task-local RNG seeded from (framework seed, benchmark, cell
// index), so results are bitwise identical for any worker count.
//
// Also provides the two search procedures the paper's results are built on:
//   * find_vmin: descend the supply in fixed steps, running N repetitions at
//     each point; the safe Vmin is the lowest voltage at which every
//     repetition completes without disruption (ECC-corrected errors do not
//     disrupt).
//   * profile caching: kernels are executed once per (kernel, frequency) and
//     the traces -- and each trace's local droop -- reused across the
//     campaign's thousands of evaluations (profile_cache.hpp).
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "chip/chip_model.hpp"
#include "harness/campaign.hpp"
#include "harness/execution_engine.hpp"
#include "harness/profile_cache.hpp"
#include "isa/kernel.hpp"
#include "isa/pipeline.hpp"
#include "util/rng.hpp"

namespace gb {

class characterization_framework {
public:
    characterization_framework(const chip_model& chip, std::uint64_t seed);

    /// Execute a full campaign of one kernel, with rig faults injected
    /// and/or records journaled as `io` asks.  The (setup x repetition)
    /// grid runs on `spec.workers` engine workers; record order matches the
    /// serial nested-loop order regardless of thread count.  A task whose
    /// rig retry budget is exhausted records run_outcome::aborted_rig (the
    /// campaign never throws for injected faults).
    [[nodiscard]] campaign_result run_campaign(const campaign_spec& spec,
                                               const kernel& program,
                                               const campaign_io& io = {});

    /// Resume a killed campaign from its journal: completed task indices
    /// are restored from `journal_in` (corrupt lines skipped and re-run)
    /// and only the remainder executes.  With the same framework seed and
    /// spec, records and CSV are bitwise identical to the uninterrupted
    /// campaign at any worker count.
    [[nodiscard]] campaign_result resume_campaign(const campaign_spec& spec,
                                                  const kernel& program,
                                                  std::istream& journal_in,
                                                  const campaign_io& io = {});

    /// Safe Vmin search for a kernel on given cores at one frequency.  The
    /// voltage ladder is evaluated in fixed-size speculative chunks of
    /// engine tasks; each (voltage, repetition) cell is independently
    /// seeded, so the measured Vmin is identical for any worker count.
    [[nodiscard]] millivolts find_vmin(const kernel& program,
                                       const std::vector<int>& cores,
                                       megahertz frequency, int repetitions,
                                       millivolts step = millivolts{5.0},
                                       int workers = 0);

    /// Cached execution profile of a kernel at a frequency
    /// (profile_cache.hpp).  Safe to call concurrently.
    [[nodiscard]] const execution_profile& profile_of(const kernel& program,
                                                      megahertz frequency);

    [[nodiscard]] std::uint64_t watchdog_resets() const {
        return watchdog_resets_;
    }
    [[nodiscard]] const chip_model& chip() const { return chip_; }

private:
    [[nodiscard]] std::vector<core_assignment> make_assignments(
        const kernel& program, const std::vector<int>& cores,
        megahertz frequency);

    [[nodiscard]] campaign_result run_campaign_impl(
        const campaign_spec& spec, const kernel& program,
        const campaign_io& io,
        const std::map<std::size_t, run_record>* restored);

    const chip_model& chip_;
    std::uint64_t seed_;
    std::uint64_t watchdog_resets_ = 0;
    /// Profiles and their local-droop memos, for the framework's lifetime.
    profile_cache profiles_;
};

} // namespace gb
