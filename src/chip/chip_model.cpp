#include "chip/chip_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>
#include <utility>

#include "util/contracts.hpp"

namespace gb {

namespace {

/// Marginal-region outcome masses.  `evaluate_run` samples these with one
/// uniform draw (its literal thresholds are the cumulative sums below);
/// `outcome_probabilities_at` integrates the same masses analytically.
/// A Monte-Carlo consistency test keeps the two in sync.
constexpr double sram_sdc_mass = 0.15;
constexpr double sram_ue_slope = 0.10;     ///< per unit depth
constexpr double sram_hang_slope = 0.05;   ///< per unit depth
constexpr double logic_crash_slope = 0.30; ///< per unit depth
constexpr double logic_hang_slope = 0.15;  ///< per unit depth
constexpr double logic_sdc_mass = 0.50;

double normal_cdf(double x, double sigma) {
    return 0.5 * std::erfc(-x / (sigma * std::numbers::sqrt2));
}

double normal_pdf_integral(double a, double b, double sigma) {
    // \int_a^b n f(n) dn for n ~ N(0, sigma).
    const double inv = 1.0 / (2.0 * sigma * sigma);
    return sigma / std::sqrt(2.0 * std::numbers::pi) *
           (std::exp(-a * a * inv) - std::exp(-b * b * inv));
}

} // namespace

std::string_view to_string(failure_path path) {
    switch (path) {
    case failure_path::logic: return "logic";
    case failure_path::sram: return "sram";
    }
    return "?";
}

std::string_view to_string(run_outcome outcome) {
    switch (outcome) {
    case run_outcome::ok: return "OK";
    case run_outcome::corrected_error: return "CE";
    case run_outcome::uncorrectable_error: return "UE";
    case run_outcome::silent_data_corruption: return "SDC";
    case run_outcome::crash: return "CRASH";
    case run_outcome::hang: return "HANG";
    case run_outcome::aborted_rig: return "ABORTED";
    }
    return "?";
}

bool is_disruption(run_outcome outcome) {
    // An aborted-rig run yields no measurement; treating it as a
    // disruption keeps searches (find_vmin descent) conservative.
    return outcome == run_outcome::uncorrectable_error ||
           outcome == run_outcome::silent_data_corruption ||
           outcome == run_outcome::crash || outcome == run_outcome::hang ||
           outcome == run_outcome::aborted_rig;
}

pdn_parameters make_xgene2_pdn() {
    // ~50 MHz first-order resonance (package L against die decap), Q ~ 6:
    // the regime the dI/dt literature reports for server parts.  The decap
    // value sets the resonant impedance (~40 mOhm) so that a one-core
    // current swing of ~1 A produces droops in the tens of mV.
    return pdn_parameters::for_resonance(50.0e6, 0.08, 0.5e-6);
}

pdn_parameters make_xgene2_global_pdn() {
    // The shared regulator loop: same resonance, ~3.3x more decap behind it,
    // so ~12 mOhm resonant impedance against the aggregate current.
    return pdn_parameters::for_resonance(50.0e6, 0.08, 1.67e-6);
}

local_droop_memo::key local_droop_memo::key_of(
    const pdn_parameters& local_pdn) {
    return {std::bit_cast<std::uint64_t>(local_pdn.resistance_ohm),
            std::bit_cast<std::uint64_t>(local_pdn.inductance_h),
            std::bit_cast<std::uint64_t>(local_pdn.capacitance_f)};
}

std::optional<millivolts> local_droop_memo::find(
    const pdn_parameters& local_pdn) const {
    const key k = key_of(local_pdn);
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [known, droop] : known_) {
        if (known == k) {
            return droop;
        }
    }
    return std::nullopt;
}

void local_droop_memo::remember(const pdn_parameters& local_pdn,
                                millivolts droop) const {
    const key k = key_of(local_pdn);
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& entry : known_) {
        if (entry.first == k) {
            return;
        }
    }
    known_.emplace_back(k, droop);
}

chip_model::chip_model(chip_config config, pdn_parameters local_pdn,
                       pdn_parameters global_pdn)
    : config_(std::move(config)), local_pdn_(local_pdn),
      global_pdn_(global_pdn) {}

std::vector<double> chip_model::combined_trace(
    std::span<const core_assignment> assignments,
    std::uint64_t phase_seed) const {
    GB_EXPECTS(!assignments.empty());
    GB_EXPECTS(assignments.size() <=
               static_cast<std::size_t>(cores_per_chip));

    // Common length: a few PDN resonance periods beyond the longest loop so
    // the droop fully develops; round to cover whole loop repetitions.
    std::size_t length = 8192;
    for (const core_assignment& a : assignments) {
        GB_EXPECTS(a.profile != nullptr);
        GB_EXPECTS(!a.profile->current_trace.empty());
        GB_EXPECTS(a.core >= 0 && a.core < cores_per_chip);
        length = std::max(length, a.profile->current_trace.size());
    }

    std::vector<double> total(length, 0.0);
    rng phase_rng(phase_seed);
    for (const core_assignment& a : assignments) {
        const std::vector<double>& trace = a.profile->current_trace;
        const std::size_t n = trace.size();
        // Wrapped-cursor accumulation: same additions in the same order as
        // the reference's (k + offset) % n indexing, without the per-cycle
        // division.
        std::size_t j = phase_rng.uniform_index(n);
        for (std::size_t k = 0; k < length; ++k) {
            total[k] += trace[j];
            if (++j == n) {
                j = 0;
            }
        }
    }
    const int idle_cores =
        cores_per_chip - static_cast<int>(assignments.size());
    const double idle_a =
        static_cast<double>(idle_cores) * core_baseline_current_a;
    for (double& i : total) {
        i += idle_a;
    }
    return total;
}

std::vector<vmin_analysis> chip_model::core_requirements(
    std::span<const core_assignment> assignments,
    std::uint64_t phase_seed) const {
    // Global contribution: the aggregate current through the shared loop.
    const std::vector<double> trace = combined_trace(assignments, phase_seed);
    const pdn_model global(global_pdn_, nominal_pmd_voltage,
                           nominal_core_frequency);
    const millivolts global_droop = global.worst_droop(trace);
    const pdn_model local(local_pdn_, nominal_pmd_voltage,
                          nominal_core_frequency);

    // Memoize the local droop per distinct profile: a homogeneous 8-core
    // assignment (the common campaign shape) convolves each trace once
    // instead of once per core, and a profile that carries its own memo
    // convolves it once per local PDN for the profile's lifetime.  Same
    // input, same pure function -- the memoized value is the one the
    // per-core call would produce.
    std::vector<std::pair<const execution_profile*, millivolts>> local_droops;
    local_droops.reserve(assignments.size());
    const auto local_droop_of = [&](const core_assignment& a) {
        for (const auto& [known, droop] : local_droops) {
            if (known == a.profile) {
                return droop;
            }
        }
        std::optional<millivolts> droop;
        if (a.local_droop != nullptr) {
            droop = a.local_droop->find(local_pdn_);
        }
        if (!droop) {
            droop = local.worst_droop(a.profile->current_trace);
            if (a.local_droop != nullptr) {
                a.local_droop->remember(local_pdn_, *droop);
            }
        }
        local_droops.emplace_back(a.profile, *droop);
        return *droop;
    };

    std::vector<vmin_analysis> requirements;
    requirements.reserve(assignments.size());
    for (const core_assignment& a : assignments) {
        GB_EXPECTS(a.frequency <= nominal_core_frequency);
        // Local contribution: this core's own current through its loop.
        const millivolts droop =
            local_droop_of(a) + global_droop;
        const millivolts droop_eff = config_.response.effective(droop);
        const double freq_relief_mv =
            config_.vf_slope_mv_per_mhz *
            (nominal_core_frequency.value - a.frequency.value);

        // Logic timing path: full frequency relief, full droop coupling.
        const millivolts logic_vmin{config_.v_crit_logic.value +
                                    config_.core_offset(a.core).value -
                                    freq_relief_mv + droop_eff.value};

        // Cache SRAM path: cell stability, not timing -- only half the
        // frequency relief, slightly weaker droop coupling, but an extra
        // penalty proportional to how hard the caches are exercised.
        const double cache_activity =
            std::max(a.profile->activity.of(cpu_component::l1d),
                     a.profile->activity.of(cpu_component::l2));
        const millivolts sram_vmin{
            config_.v_crit_logic.value +
            config_.v_crit_sram_delta.value * cache_activity +
            config_.core_offset(a.core).value - 0.5 * freq_relief_mv +
            0.9 * droop_eff.value};

        vmin_analysis req;
        req.droop = droop;
        req.droop_effective = droop_eff;
        const bool sram_dominates = sram_vmin > logic_vmin;
        req.vmin = sram_dominates ? sram_vmin : logic_vmin;
        req.path = sram_dominates ? failure_path::sram : failure_path::logic;
        req.critical_core = a.core;
        requirements.push_back(req);
    }
    return requirements;
}

vmin_analysis chip_model::analyze(std::span<const core_assignment> assignments,
                                  std::uint64_t phase_seed) const {
    const std::vector<vmin_analysis> requirements =
        core_requirements(assignments, phase_seed);
    GB_EXPECTS(!requirements.empty());
    const vmin_analysis* worst = &requirements.front();
    for (const vmin_analysis& req : requirements) {
        if (req.vmin > worst->vmin) {
            worst = &req;
        }
    }
    GB_ENSURES(worst->vmin.value > 0.0);
    return *worst;
}

vmin_analysis chip_model::analyze_single(const execution_profile& profile,
                                         int core,
                                         megahertz frequency) const {
    const core_assignment assignment{core, &profile, frequency};
    return analyze(std::span<const core_assignment>(&assignment, 1),
                   /*phase_seed=*/0);
}

run_evaluation chip_model::evaluate_run(
    std::span<const core_assignment> assignments, millivolts supply,
    std::uint64_t phase_seed, rng& r) const {
    return evaluate_at(analyze(assignments, phase_seed), supply, r);
}

run_evaluation chip_model::evaluate_at(const vmin_analysis& analysis,
                                       millivolts supply, rng& r) const {
    const millivolts noisy_vmin{analysis.vmin.value +
                                r.normal(0.0, run_noise_sigma_mv)};
    run_evaluation eval;
    eval.margin = supply - noisy_vmin;
    eval.path = analysis.path;

    if (eval.margin.value >= 0.0) {
        eval.outcome = run_outcome::ok;
        return eval;
    }
    if (eval.margin.value <= -crash_window.value) {
        eval.outcome = run_outcome::crash;
        return eval;
    }
    // Marginal region: the failure mode depends on which path gave out and
    // on how deep below Vmin the supply sits.  Just below Vmin only the
    // slowest path misses occasionally (isolated errors); catastrophic
    // outcomes ramp up with depth until the hard-crash window.  Cache SRAM
    // failures are mostly caught by the cache ECC/parity (CE); logic-path
    // failures corrupt in-flight state (SDC) or lock up the pipeline.
    // The literal thresholds are the cumulative marginal-region masses
    // at the top of this file; keep the two in sync.
    const double depth = -eval.margin.value / crash_window.value; // (0, 1)
    const double u = r.uniform();
    if (analysis.path == failure_path::sram) {
        if (u < 0.15) {
            eval.outcome = run_outcome::silent_data_corruption;
        } else if (u < 0.15 + 0.10 * depth) {
            eval.outcome = run_outcome::uncorrectable_error;
        } else if (u < 0.15 + 0.15 * depth) {
            eval.outcome = run_outcome::hang;
        } else {
            eval.outcome = run_outcome::corrected_error;
        }
    } else {
        if (u < 0.30 * depth) {
            eval.outcome = run_outcome::crash;
        } else if (u < 0.45 * depth) {
            eval.outcome = run_outcome::hang;
        } else if (u < 0.45 * depth + 0.50) {
            eval.outcome = run_outcome::silent_data_corruption;
        } else {
            eval.outcome = run_outcome::corrected_error;
        }
    }
    return eval;
}

outcome_distribution chip_model::outcome_probabilities(
    std::span<const core_assignment> assignments, millivolts supply,
    std::uint64_t phase_seed) const {
    return outcome_probabilities_at(analyze(assignments, phase_seed), supply);
}

outcome_distribution chip_model::outcome_probabilities_at(
    const vmin_analysis& analysis, millivolts supply) const {
    // margin = m0 - noise with noise ~ N(0, sigma); the marginal region is
    // noise in (m0, m0 + W).
    const double m0 = supply.value - analysis.vmin.value;
    const double sigma = run_noise_sigma_mv;
    const double w = crash_window.value;

    outcome_distribution d;
    d.p_ok = normal_cdf(m0, sigma);
    d.p_crash = 1.0 - normal_cdf(m0 + w, sigma);
    const double p_marginal = std::max(
        0.0, normal_cdf(m0 + w, sigma) - normal_cdf(m0, sigma));
    if (p_marginal <= 0.0) {
        return d;
    }
    // First moment of the depth over the marginal region:
    //   E[depth 1{marginal}] = (E[n 1{m0<n<m0+w}] - m0 p_marginal) / w.
    const double depth_mass =
        (normal_pdf_integral(m0, m0 + w, sigma) - m0 * p_marginal) / w;
    if (analysis.path == failure_path::sram) {
        d.p_sdc = sram_sdc_mass * p_marginal;
        d.p_uncorrectable = sram_ue_slope * depth_mass;
        d.p_hang = sram_hang_slope * depth_mass;
        d.p_corrected = p_marginal - d.p_sdc - d.p_uncorrectable - d.p_hang;
    } else {
        d.p_sdc = logic_sdc_mass * p_marginal;
        d.p_hang = logic_hang_slope * depth_mass;
        d.p_crash += logic_crash_slope * depth_mass;
        d.p_corrected = p_marginal - d.p_sdc - d.p_hang -
                        logic_crash_slope * depth_mass;
    }
    d.p_corrected = std::max(0.0, d.p_corrected);
    return d;
}

double chip_model::sdc_probability(
    std::span<const core_assignment> assignments, millivolts supply,
    std::uint64_t phase_seed) const {
    return outcome_probabilities(assignments, supply, phase_seed).p_sdc;
}

} // namespace gb
