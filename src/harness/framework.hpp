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

class campaign_journal;
class fault_plan;

/// A multi-program assignment: which kernel runs on which core.
struct program_assignment {
    int core = 0;
    const kernel* program = nullptr;
};

/// Rig I/O for a CPU campaign: optional deterministic fault injection and
/// crash-safe journaling of completed run records (journal.hpp).
struct campaign_io {
    const fault_plan* faults = nullptr;
    campaign_journal* journal = nullptr;
    /// ATTEMPTS per task, the first one included (>= 1); forwarded to
    /// execution_options::retry_budget.  Unlike the fleet's retry_budget,
    /// this is not a retry count: 1 means a faulted task aborts at once.
    int retry_budget = 3;
    /// Deterministic observability sinks, forwarded to the execution
    /// engine (trace/trace.hpp); null disables.
    tracer* trace = nullptr;
    metrics_registry* metrics = nullptr;
    /// Deterministic time-series sink, forwarded to the execution engine
    /// (timeseries/timeseries.hpp); null disables.
    timeline_recorder* timeline = nullptr;
    /// Live-status heartbeat file, forwarded to the execution engine
    /// (status.hpp); empty disables.
    std::string status_path;
};

class characterization_framework {
public:
    characterization_framework(const chip_model& chip, std::uint64_t seed);

    /// Execute a full campaign of one kernel.  The (setup x repetition)
    /// grid runs on `spec.workers` engine workers; record order matches the
    /// serial nested-loop order regardless of thread count.
    [[nodiscard]] campaign_result run_campaign(const campaign_spec& spec,
                                               const kernel& program);
    /// Same, with rig faults injected and/or records journaled.  A task
    /// whose rig retry budget is exhausted records run_outcome::aborted_rig
    /// (the campaign never throws for injected faults).
    [[nodiscard]] campaign_result run_campaign(const campaign_spec& spec,
                                               const kernel& program,
                                               const campaign_io& io);

    /// Resume a killed campaign from its journal: completed task indices
    /// are restored from `journal_in` (corrupt lines skipped and re-run)
    /// and only the remainder executes.  With the same framework seed and
    /// spec, records and CSV are bitwise identical to the uninterrupted
    /// campaign at any worker count.
    [[nodiscard]] campaign_result resume_campaign(const campaign_spec& spec,
                                                  const kernel& program,
                                                  std::istream& journal_in,
                                                  const campaign_io& io = {});

    /// One run of a heterogeneous assignment (e.g. the Fig 5 8-benchmark
    /// mix) at a setup; per-core frequency comes from `frequencies[pmd]`.
    [[nodiscard]] run_evaluation run_mix(
        const std::vector<program_assignment>& programs,
        millivolts voltage, const std::array<megahertz, 4>& pmd_frequency);

    /// Safe Vmin search for a kernel on given cores at one frequency.  The
    /// voltage ladder is evaluated in fixed-size speculative chunks of
    /// engine tasks; each (voltage, repetition) cell is independently
    /// seeded, so the measured Vmin is identical for any worker count.
    [[nodiscard]] millivolts find_vmin(const kernel& program,
                                       const std::vector<int>& cores,
                                       megahertz frequency, int repetitions,
                                       millivolts step = millivolts{5.0},
                                       int workers = 0);

    /// Vmin analysis (deterministic, no repetition noise) of a mix.
    [[nodiscard]] vmin_analysis analyze_mix(
        const std::vector<program_assignment>& programs,
        const std::array<megahertz, 4>& pmd_frequency);

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
        const std::vector<program_assignment>& programs,
        const std::array<megahertz, 4>& pmd_frequency);

    [[nodiscard]] campaign_result run_campaign_impl(
        const campaign_spec& spec, const kernel& program,
        const campaign_io& io,
        const std::map<std::size_t, run_record>* restored);

    const chip_model& chip_;
    std::uint64_t seed_;
    rng rng_;
    std::uint64_t next_phase_seed_ = 1;
    std::uint64_t watchdog_resets_ = 0;
    /// Profiles and their local-droop memos, for the framework's lifetime.
    profile_cache profiles_;
};

} // namespace gb
