#include "harness/framework.hpp"

#include <cmath>
#include <istream>

#include "harness/fault_injection.hpp"
#include "harness/journal.hpp"
#include "harness/logfile.hpp"
#include "util/contracts.hpp"
#include "util/log.hpp"

namespace gb {

namespace {

/// Campaign-level seed root: decorrelates the framework seed from the
/// benchmark identity so two benchmarks never share task seeds.
std::uint64_t campaign_seed(std::uint64_t framework_seed,
                            std::string_view label) {
    return derive_task_seed(framework_seed, hash_label(label));
}

} // namespace

characterization_framework::characterization_framework(const chip_model& chip,
                                                       std::uint64_t seed)
    : chip_(chip), seed_(seed), rng_(seed) {}

const execution_profile& characterization_framework::profile_of(
    const kernel& program, megahertz frequency) {
    return profiles_.get(program, frequency).profile;
}

std::vector<core_assignment> characterization_framework::make_assignments(
    const std::vector<program_assignment>& programs,
    const std::array<megahertz, 4>& pmd_frequency) {
    GB_EXPECTS(!programs.empty());
    std::vector<core_assignment> assignments;
    assignments.reserve(programs.size());
    for (const program_assignment& p : programs) {
        GB_EXPECTS(p.program != nullptr);
        GB_EXPECTS(p.core >= 0 && p.core < cores_per_chip);
        const megahertz f =
            pmd_frequency[static_cast<std::size_t>(p.core / cores_per_pmd)];
        assignments.push_back(profiles_.get(*p.program, f).on_core(p.core, f));
    }
    return assignments;
}

campaign_result characterization_framework::run_campaign(
    const campaign_spec& spec, const kernel& program) {
    return run_campaign_impl(spec, program, {}, nullptr);
}

campaign_result characterization_framework::run_campaign(
    const campaign_spec& spec, const kernel& program,
    const campaign_io& io) {
    return run_campaign_impl(spec, program, io, nullptr);
}

campaign_result characterization_framework::resume_campaign(
    const campaign_spec& spec, const kernel& program,
    std::istream& journal_in, const campaign_io& io) {
    const cpu_journal_replay replay = replay_cpu_journal(journal_in);
    if (replay.skipped > 0) {
        log_info(spec.benchmark, " resume: ", replay.completed.size(),
                 " records restored, ", replay.skipped,
                 " journal lines unrecoverable (their tasks re-run)");
    }
    return run_campaign_impl(spec, program, io, &replay.completed);
}

campaign_result characterization_framework::run_campaign_impl(
    const campaign_spec& spec, const kernel& program, const campaign_io& io,
    const std::map<std::size_t, run_record>* restored) {
    GB_EXPECTS(spec.repetitions >= 1);
    GB_EXPECTS(!spec.setups.empty());
    GB_EXPECTS(io.retry_budget >= 1);

    // Profiles are warmed serially while the setups are enumerated, so the
    // engine tasks below only ever read shared state.
    std::vector<std::vector<core_assignment>> setup_assignments;
    setup_assignments.reserve(spec.setups.size());
    for (const characterization_setup& setup : spec.setups) {
        GB_EXPECTS(!setup.cores.empty());
        std::vector<program_assignment> programs;
        programs.reserve(setup.cores.size());
        for (const int core : setup.cores) {
            programs.push_back(program_assignment{core, &program});
        }
        const std::array<megahertz, 4> frequencies{
            setup.frequency, setup.frequency, setup.frequency,
            setup.frequency};
        setup_assignments.push_back(make_assignments(programs, frequencies));
    }

    // Thread launch alignment is part of the workload setup: the campaign
    // scripts start instances the same way every run, so the phase draw is
    // stable per benchmark (run-to-run variability comes from the threshold
    // noise, as on the real rig).
    const std::uint64_t phase_seed = hash_label(spec.benchmark);
    const std::size_t reps = static_cast<std::size_t>(spec.repetitions);
    const std::size_t total = spec.setups.size() * reps;

    // The Vmin analysis is a pure function of (assignments, phase_seed) and
    // independent of the supply, so each setup's trace/droop pass runs once
    // here instead of once per (voltage, repetition) task.  evaluate_at
    // draws the same RNG sequence as evaluate_run, so records are identical.
    std::vector<vmin_analysis> setup_analyses;
    setup_analyses.reserve(setup_assignments.size());
    for (const std::vector<core_assignment>& assignments : setup_assignments) {
        setup_analyses.push_back(chip_.analyze(assignments, phase_seed));
    }

    campaign_result result;
    result.spec = spec;
    result.records.resize(total);

    // Journal-resume bookkeeping: prefill restored slots; the engine skips
    // fault injection for them and the task only reports the replayed
    // outcome bucket.
    std::vector<char> completed(total, 0);
    if (restored != nullptr) {
        for (const auto& [index, record] : *restored) {
            if (index < total) {
                result.records[index] = record;
                completed[index] = 1;
            }
        }
    }

    execution_options options;
    options.workers = spec.workers;
    options.base_seed = campaign_seed(seed_, spec.benchmark);
    options.campaign = spec.benchmark;
    options.faults = io.faults;
    options.retry_budget = io.retry_budget;
    options.trace = io.trace;
    options.metrics = io.metrics;
    options.timeline = io.timeline;
    options.status_path = io.status_path;
    if (restored != nullptr) {
        options.already_complete = [&completed](std::size_t index) {
            return completed[index] != 0;
        };
    }
    const execution_engine engine(options);
    result.stats = engine.run(total, [&](const task_context& ctx) {
        run_record& record = result.records[ctx.index];
        if (ctx.replayed) {
            return static_cast<int>(record.outcome);
        }
        const std::size_t setup_index = ctx.index / reps;
        const characterization_setup& setup = spec.setups[setup_index];
        record.benchmark = spec.benchmark;
        record.voltage = setup.voltage;
        record.frequency = setup.frequency;
        record.cores = setup.cores;
        record.repetition = static_cast<int>(ctx.index % reps);
        if (ctx.aborted) {
            // Rig retry budget exhausted: the board never reported a
            // result for this cell.  The campaign records the gap (the
            // rig's watchdog monitor did fire) and moves on.
            record.outcome = run_outcome::aborted_rig;
            record.margin = millivolts{0.0};
            record.path = failure_path::logic;
            record.watchdog_reset = true;
        } else {
            rng task_rng(ctx.seed);
            const run_evaluation eval = chip_.evaluate_at(
                setup_analyses[setup_index], setup.voltage, task_rng);
            record.outcome = eval.outcome;
            record.margin = eval.margin;
            record.path = eval.path;
            record.watchdog_reset = eval.outcome == run_outcome::crash ||
                                    eval.outcome == run_outcome::hang;
        }
        if (io.journal != nullptr) {
            io.journal->append(ctx.index, to_log_line(record), io.faults);
        }
        return static_cast<int>(record.outcome);
    });
    if (io.journal != nullptr) {
        result.stats.corrupted_log_lines = io.journal->corrupted();
    }

    // Watchdog accounting happens after the sweep, in record order, so the
    // count and the debug log sequence are scheduling-independent.
    for (const run_record& record : result.records) {
        if (record.watchdog_reset) {
            ++result.watchdog_resets;
            ++watchdog_resets_;
            log_debug("watchdog reset: ", spec.benchmark, " at ",
                      record.voltage.value, " mV");
        }
    }
    return result;
}

run_evaluation characterization_framework::run_mix(
    const std::vector<program_assignment>& programs, millivolts voltage,
    const std::array<megahertz, 4>& pmd_frequency) {
    const std::vector<core_assignment> assignments =
        make_assignments(programs, pmd_frequency);
    const run_evaluation eval = chip_.evaluate_run(
        assignments, voltage, next_phase_seed_++, rng_);
    if (eval.outcome == run_outcome::crash ||
        eval.outcome == run_outcome::hang) {
        ++watchdog_resets_;
    }
    return eval;
}

millivolts characterization_framework::find_vmin(
    const kernel& program, const std::vector<int>& cores, megahertz frequency,
    int repetitions, millivolts step, int workers) {
    GB_EXPECTS(repetitions >= 1);
    GB_EXPECTS(step.value > 0.0);
    GB_EXPECTS(!cores.empty());

    std::vector<program_assignment> programs;
    programs.reserve(cores.size());
    for (const int core : cores) {
        programs.push_back(program_assignment{core, &program});
    }
    const std::array<megahertz, 4> frequencies{frequency, frequency,
                                               frequency, frequency};
    const std::vector<core_assignment> assignments =
        make_assignments(programs, frequencies);

    // The descending voltage ladder, fully enumerated up front.
    std::vector<millivolts> ladder;
    for (millivolts v = nominal_pmd_voltage; v.value > 0.0; v -= step) {
        ladder.push_back(v);
    }

    // The search seed identifies the (kernel, frequency, cores) sweep so
    // repeated searches of the same point reproduce exactly, while every
    // distinct sweep draws independent noise.
    std::uint64_t base = campaign_seed(seed_, program.name);
    base = derive_task_seed(base, static_cast<std::uint64_t>(
                                      std::lround(frequency.value)));
    for (const int core : cores) {
        base = derive_task_seed(base, static_cast<std::uint64_t>(core) + 1);
    }

    execution_options options;
    options.workers = workers;
    options.base_seed = base;
    options.campaign = program.name + "/vmin";
    const execution_engine engine(options);

    const std::uint64_t phase_seed = hash_label(program.name);
    // One trace/droop pass serves the entire ladder: the analysis does not
    // depend on the candidate supply, only the per-run noise draw does.
    const vmin_analysis analysis = chip_.analyze(assignments, phase_seed);
    const std::size_t reps = static_cast<std::size_t>(repetitions);
    // Fixed speculation depth: the chunk size must not depend on the worker
    // count or the set of evaluated cells (and thus the result and the
    // watchdog accounting) would change with parallelism.  16 voltages keep
    // 8 workers saturated at 10 repetitions while over-descending past the
    // failure point by less than one chunk.
    constexpr std::size_t chunk_voltages = 16;

    millivolts safe = nominal_pmd_voltage;
    std::vector<run_outcome> outcomes;
    for (std::size_t chunk_start = 0; chunk_start < ladder.size();
         chunk_start += chunk_voltages) {
        const std::size_t chunk_end =
            std::min(chunk_start + chunk_voltages, ladder.size());
        const std::size_t chunk_tasks = (chunk_end - chunk_start) * reps;
        outcomes.assign(chunk_tasks, run_outcome::ok);

        engine.run(
            chunk_tasks,
            [&](const task_context& ctx) {
                const std::size_t local = ctx.index - chunk_start * reps;
                const millivolts v = ladder[ctx.index / reps];
                rng task_rng(ctx.seed);
                const run_evaluation eval =
                    chip_.evaluate_at(analysis, v, task_rng);
                outcomes[local] = eval.outcome;
                return static_cast<int>(eval.outcome);
            },
            /*first_index=*/chunk_start * reps);

        // Scan the chunk in ladder order: descend while every repetition is
        // clean; the first disruptive voltage ends the search.  Watchdog
        // resets are counted only down to that voltage -- the speculative
        // cells below it are discarded, as the serial descent would never
        // have evaluated them.
        for (std::size_t v_idx = chunk_start; v_idx < chunk_end; ++v_idx) {
            bool all_clean = true;
            for (std::size_t rep = 0; rep < reps; ++rep) {
                const run_outcome outcome =
                    outcomes[(v_idx - chunk_start) * reps + rep];
                if (outcome == run_outcome::crash ||
                    outcome == run_outcome::hang) {
                    ++watchdog_resets_;
                }
                all_clean = all_clean && !is_disruption(outcome);
            }
            if (!all_clean) {
                GB_ENSURES(safe <= nominal_pmd_voltage);
                return safe;
            }
            safe = ladder[v_idx];
        }
    }
    GB_ENSURES(safe <= nominal_pmd_voltage);
    return safe;
}

vmin_analysis characterization_framework::analyze_mix(
    const std::vector<program_assignment>& programs,
    const std::array<megahertz, 4>& pmd_frequency) {
    const std::vector<core_assignment> assignments =
        make_assignments(programs, pmd_frequency);
    return chip_.analyze(assignments, /*phase_seed=*/12345);
}

} // namespace gb
