// Chip-level Vmin model and run-outcome evaluation.
//
// Ties together the pipeline's current traces, the PDN's droop physics and
// the corner model's failure thresholds to answer the question the paper's
// framework asks thousands of times: "does this workload, on these cores of
// this chip, at this voltage and frequency, run correctly -- and if not, how
// does the failure manifest?"
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "chip/corners.hpp"
#include "isa/pipeline.hpp"
#include "pdn/pdn.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace gb {

/// Nominal operating point of the X-Gene2 PMD domain.
inline constexpr millivolts nominal_pmd_voltage{980.0};
inline constexpr megahertz nominal_core_frequency{2400.0};

/// Memo of one execution profile's local droop: the `pdn_model::worst_droop`
/// of its current trace through a chip's core-local loop at the nominal
/// point.  That value depends only on (profile, local PDN), so the memo is
/// keyed by the bitwise value of the local `pdn_parameters` and is shared
/// by every chip that has the same local loop.  It must live beside the
/// profile it belongs to and die with it (profile_cache.hpp): never key a
/// memo by a profile's address in a longer-lived map, because a freed
/// profile's address is reused by the next one.  Safe to use from
/// concurrent engine workers; a first-touch race computes the same value
/// twice and keeps one.
class local_droop_memo {
public:
    /// The memoized droop for `local_pdn`, if one was recorded.
    [[nodiscard]] std::optional<millivolts> find(
        const pdn_parameters& local_pdn) const;
    /// Record the droop for `local_pdn` (a repeat is ignored).
    void remember(const pdn_parameters& local_pdn, millivolts droop) const;

private:
    using key = std::array<std::uint64_t, 3>;
    [[nodiscard]] static key key_of(const pdn_parameters& local_pdn);

    mutable std::mutex mutex_;
    mutable std::vector<std::pair<key, millivolts>> known_;
};

/// One core running one workload profile at one frequency.  The profile must
/// have been produced by a pipeline_model clocked at `frequency`.
struct core_assignment {
    int core = 0;
    const execution_profile* profile = nullptr;
    megahertz frequency = nominal_core_frequency;
    /// The local-droop memo that lives beside `profile` (null: the droop is
    /// computed per `core_requirements` call).
    const local_droop_memo* local_droop = nullptr;
};

/// Which failure path gives out first at low voltage.
enum class failure_path : std::uint8_t {
    logic, ///< pipeline timing paths
    sram,  ///< cache SRAM cells
};

[[nodiscard]] std::string_view to_string(failure_path path);

/// Everything the Vmin analysis of one run determines.
struct vmin_analysis {
    millivolts vmin{0.0};            ///< minimum safe supply voltage
    millivolts droop{0.0};           ///< raw worst-case PDN droop
    millivolts droop_effective{0.0}; ///< after the chip's droop response
    failure_path path = failure_path::logic;
    int critical_core = 0; ///< core whose requirement dominates
};

/// How a characterization run at a given supply voltage ended.  Mirrors the
/// paper's classification: correctable errors (CE), uncorrectable errors
/// (UE), silent data corruption (SDC, caught against a golden reference),
/// crashes and hangs (caught by the watchdog).  `aborted_rig` is the
/// framework's graceful-degradation bucket: the *rig* (not the chip) kept
/// failing -- hangs, dead boards, stuck power switches -- until the retry
/// budget ran out, so the run produced no measurement.
enum class run_outcome : std::uint8_t {
    ok,
    corrected_error,
    uncorrectable_error,
    silent_data_corruption,
    crash,
    hang,
    aborted_rig,
};

[[nodiscard]] std::string_view to_string(run_outcome outcome);
[[nodiscard]] bool is_disruption(run_outcome outcome);

struct run_evaluation {
    run_outcome outcome = run_outcome::ok;
    millivolts margin{0.0}; ///< supply minus (noisy) Vmin; negative = below
    failure_path path = failure_path::logic;
};

/// Probability mass over run outcomes at one (deterministic) margin depth
/// inside the marginal region between Vmin and the hard-crash window.  This
/// is the chip's *SDC region* made explicit: silent corruption carries its
/// own probability, distinct from the crash/hang paths, so an operating
/// supervisor can budget sentinel (golden-checksum) epochs against it
/// instead of discovering corruption only after the fact.
struct outcome_distribution {
    double p_ok = 0.0;
    double p_corrected = 0.0;
    double p_uncorrectable = 0.0;
    double p_sdc = 0.0;
    double p_crash = 0.0;
    double p_hang = 0.0;

    [[nodiscard]] double total() const {
        return p_ok + p_corrected + p_uncorrectable + p_sdc + p_crash +
               p_hang;
    }
    /// Probability the epoch's work is lost or silently wrong.
    [[nodiscard]] double p_disruption() const {
        return p_uncorrectable + p_sdc + p_crash + p_hang;
    }
};

/// Core-local PDN loop: ~50 MHz first-order resonance, lightly damped,
/// ~40 mOhm resonant impedance against one core's current.
[[nodiscard]] pdn_parameters make_xgene2_pdn();

/// Chip-global PDN loop: same resonance, ~12 mOhm against the summed
/// current of all cores.
[[nodiscard]] pdn_parameters make_xgene2_global_pdn();

/// The simulated chip: corner personality plus its power-delivery network.
///
/// The PDN has two levels, as in the droop literature: a core-local loop
/// (each core's own grid/package path, responding to that core's current)
/// and a chip-global loop (shared regulator path, responding to the sum of
/// all cores).  A core's droop is the sum of both contributions, so a virus
/// aligned across 8 cores gains through the global loop but not 8-fold.
class chip_model {
public:
    chip_model(chip_config config, pdn_parameters local_pdn,
               pdn_parameters global_pdn = make_xgene2_global_pdn());

    /// Vmin of a multi-core run.  `phase_seed` determines the relative cycle
    /// alignment of the cores' loops (threads are never cycle-aligned on the
    /// real machine; alignment changes how per-core currents add up).
    [[nodiscard]] vmin_analysis analyze(
        std::span<const core_assignment> assignments,
        std::uint64_t phase_seed) const;

    /// Per-core supply requirements of a multi-core run (same droop, each
    /// core's own offsets/paths).  Used to rank PMDs by weakness for the
    /// frequency-scaling trade-off of Fig 5.  An assignment's local droop
    /// comes from its `local_droop` memo when it carries one.
    [[nodiscard]] std::vector<vmin_analysis> core_requirements(
        std::span<const core_assignment> assignments,
        std::uint64_t phase_seed) const;

    /// Convenience: one workload on one core, the rest idle.
    [[nodiscard]] vmin_analysis analyze_single(
        const execution_profile& profile, int core,
        megahertz frequency = nominal_core_frequency) const;

    /// Aggregate per-cycle current of all 8 cores (active ones tiled with
    /// phase offsets, idle ones at baseline).  The accumulation loop walks
    /// each core's trace with a wrapped cursor instead of a per-cycle
    /// modulo; addition order matches combined_trace_reference exactly, so
    /// the two are bitwise-identical (held by kernel_equivalence_test).
    [[nodiscard]] std::vector<double> combined_trace(
        std::span<const core_assignment> assignments,
        std::uint64_t phase_seed) const;

    /// Retained reference implementation of combined_trace (per-cycle modulo
    /// indexing, the pre-optimization code path).  Differential-testing twin
    /// only.
    [[nodiscard]] std::vector<double> combined_trace_reference(
        std::span<const core_assignment> assignments,
        std::uint64_t phase_seed) const;

    /// Outcome of one run at the given supply voltage.  Stochastic: each run
    /// draws its own threshold noise, matching the paper's repetition of
    /// every undervolting experiment ten times.
    [[nodiscard]] run_evaluation evaluate_run(
        std::span<const core_assignment> assignments, millivolts supply,
        std::uint64_t phase_seed, rng& r) const;

    /// Outcome of one run at `supply` against a precomputed analysis.  The
    /// analysis is a pure function of (assignments, phase_seed) and is
    /// independent of the supply voltage, so a Vmin search evaluates its
    /// whole candidate ladder -- every (V, repetition) cell of a bisection
    /// or descent step -- against one shared trace/droop pass instead of
    /// re-convolving the PDN per cell.  `evaluate_run` is exactly
    /// `evaluate_at(analyze(assignments, phase_seed), supply, r)`; the RNG
    /// draw sequence is identical, so batched and unbatched evaluation are
    /// bitwise-equal (held by kernel_equivalence_test).
    [[nodiscard]] run_evaluation evaluate_at(const vmin_analysis& analysis,
                                             millivolts supply, rng& r) const;

    /// Outcome probabilities at a fixed depth inside the marginal region
    /// (depth in (0, 1): fraction of the crash window below Vmin).  The
    /// same mass function `evaluate_run` samples from.
    [[nodiscard]] static outcome_distribution marginal_outcome_distribution(
        failure_path path, double depth);

    /// Outcome probabilities of one run at a supply voltage, integrating
    /// the per-run threshold noise in closed form.  Deterministic (no RNG):
    /// the frequency of each `evaluate_run` outcome converges to these
    /// values over repetitions.
    [[nodiscard]] outcome_distribution outcome_probabilities(
        std::span<const core_assignment> assignments, millivolts supply,
        std::uint64_t phase_seed) const;

    /// Same closed-form integration against a precomputed analysis, for
    /// callers sweeping many supplies over one workload (supervisor sentinel
    /// budgeting, operating-point grids).
    [[nodiscard]] outcome_distribution outcome_probabilities_at(
        const vmin_analysis& analysis, millivolts supply) const;

    /// Probability that a run at this supply ends in silent data
    /// corruption -- the signal the supervisor's sentinel scheduler
    /// accumulates between golden-checksum epochs.
    [[nodiscard]] double sdc_probability(
        std::span<const core_assignment> assignments, millivolts supply,
        std::uint64_t phase_seed) const;

    [[nodiscard]] const chip_config& config() const { return config_; }
    [[nodiscard]] const pdn_parameters& pdn() const { return local_pdn_; }
    [[nodiscard]] const pdn_parameters& global_pdn() const {
        return global_pdn_;
    }

    /// Supply voltage below Vmin at which failures escalate to a crash.
    static constexpr millivolts crash_window{10.0};
    /// Run-to-run repeatability noise of the failure threshold.
    static constexpr double run_noise_sigma_mv = 2.5;

private:
    chip_config config_;
    pdn_parameters local_pdn_;
    pdn_parameters global_pdn_;
};

} // namespace gb
