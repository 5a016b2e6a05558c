#include "harness/dram_campaign.hpp"

#include <algorithm>
#include <ostream>
#include <vector>

#include "harness/fault_injection.hpp"
#include "harness/journal.hpp"
#include "harness/logfile.hpp"
#include "util/contracts.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"

namespace gb {

void dram_campaign_spec::validate() const {
    GB_EXPECTS(!temperatures.empty());
    GB_EXPECTS(!refresh_periods.empty());
    GB_EXPECTS(!patterns.empty());
    GB_EXPECTS(repetitions >= 1);
    for (const milliseconds period : refresh_periods) {
        GB_EXPECTS(period.value >= nominal_refresh_period.value);
    }
}

std::string_view to_string(dram_run_outcome outcome) {
    switch (outcome) {
    case dram_run_outcome::clean: return "clean";
    case dram_run_outcome::contained: return "CE-contained";
    case dram_run_outcome::uncorrectable: return "UE";
    case dram_run_outcome::aborted_rig: return "ABORTED";
    }
    return "?";
}

milliseconds dram_campaign_result::max_safe_period(
    celsius temperature) const {
    milliseconds best = nominal_refresh_period;
    for (const milliseconds period : spec.refresh_periods) {
        bool all_ok = false;
        bool any = false;
        for (const dram_run_record& record : records) {
            if (record.temperature == temperature &&
                record.refresh_period == period) {
                if (!any) {
                    all_ok = true;
                    any = true;
                }
                all_ok = all_ok &&
                         (record.outcome == dram_run_outcome::clean ||
                          record.outcome == dram_run_outcome::contained);
            }
        }
        if (any && all_ok && period > best) {
            best = period;
        }
    }
    return best;
}

std::uint64_t dram_campaign_result::uncorrectable_records() const {
    return static_cast<std::uint64_t>(std::count_if(
        records.begin(), records.end(), [](const dram_run_record& r) {
            return r.outcome == dram_run_outcome::uncorrectable;
        }));
}

std::uint64_t dram_campaign_result::aborted_records() const {
    return static_cast<std::uint64_t>(std::count_if(
        records.begin(), records.end(), [](const dram_run_record& r) {
            return r.outcome == dram_run_outcome::aborted_rig;
        }));
}

dram_campaign_result run_dram_campaign(memory_system& memory,
                                       thermal_testbed& testbed,
                                       const dram_campaign_spec& spec,
                                       const campaign_io& io) {
    spec.validate();
    GB_EXPECTS(testbed.dimm_count() >= memory.geometry().dimms);
    GB_EXPECTS(io.retry_budget >= 1);

    const std::size_t reps = static_cast<std::size_t>(spec.repetitions);
    const std::size_t per_pattern = reps;
    const std::size_t per_period = spec.patterns.size() * per_pattern;
    const std::size_t per_temperature =
        spec.refresh_periods.size() * per_period;
    const std::size_t total = spec.temperatures.size() * per_temperature;

    dram_campaign_result result;
    result.spec = spec;
    result.records.resize(total);

    // Route the plan's thermocouple mounting faults through the testbed's
    // existing injection hook, with the SPD cross-check armed so control
    // degrades gracefully instead of cooking the DIMM.  Runs before any
    // soak, like a mis-mounted sensor on the real rig.
    if (io.faults != nullptr) {
        for (int dimm = 0; dimm < testbed.dimm_count(); ++dimm) {
            const celsius offset = io.faults->thermocouple_offset(dimm);
            if (offset.value != 0.0) {
                testbed.inject_thermocouple_fault(dimm, offset);
                ++result.thermocouple_faults;
                log_debug("fault plan: thermocouple offset ", offset.value,
                          " C injected on DIMM ", dimm);
            }
        }
        if (result.thermocouple_faults > 0) {
            testbed.enable_spd_cross_check(celsius{2.0});
        }
    }

    execution_options options;
    options.workers = spec.workers;
    options.base_seed = spec.base_seed;
    options.campaign = "dram_campaign";
    options.faults = io.faults;
    options.retry_budget = io.retry_budget;
    options.trace = io.trace;
    options.metrics = io.metrics;
    options.timeline = io.timeline;
    options.status_path = io.status_path;
    const execution_engine engine(options);

    for (std::size_t t = 0; t < spec.temperatures.size(); ++t) {
        const celsius temperature = spec.temperatures[t];
        // The soak is inherently serial: every scan of this block sees the
        // same regulated thermal state.
        testbed.set_all_targets(temperature);
        testbed.run(/*duration_s=*/2400.0, /*control_period_s=*/1.0,
                    /*settle_s=*/900.0);
        testbed.apply_to(memory);
        double regulation = 0.0;
        for (int dimm = 0; dimm < memory.geometry().dimms; ++dimm) {
            regulation = std::max(regulation, testbed.max_deviation_c(dimm));
        }

        // The (period x pattern x repetition) grid of scans, flattened in
        // the legacy nested-loop order.  Tasks only read the memory system:
        // the refresh period travels as a scan parameter, and scan N keeps
        // the serial seed sequence base_seed + N.
        const execution_stats stats = engine.run(
            per_temperature,
            [&](const task_context& ctx) {
                dram_run_record& record = result.records[ctx.index];
                const std::size_t within = ctx.index - t * per_temperature;
                record.temperature = temperature;
                record.refresh_period =
                    spec.refresh_periods[within / per_period];
                record.pattern =
                    spec.patterns[(within % per_period) / per_pattern];
                record.repetition = static_cast<int>(within % per_pattern);
                record.regulation_deviation_c = regulation;
                if (ctx.aborted) {
                    // Rig retry budget exhausted: no scan data for this
                    // cell; the campaign degrades instead of dying.
                    record.scan = scan_result{};
                    record.outcome = dram_run_outcome::aborted_rig;
                } else {
                    record.scan = memory.run_dpbench(
                        record.pattern, spec.base_seed + ctx.index,
                        record.refresh_period);
                    if (record.scan.failed_cells == 0) {
                        record.outcome = dram_run_outcome::clean;
                    } else if (record.scan.fully_corrected()) {
                        record.outcome = dram_run_outcome::contained;
                    } else {
                        record.outcome = dram_run_outcome::uncorrectable;
                    }
                }
                if (io.journal != nullptr) {
                    io.journal->append(ctx.index, to_log_line(record),
                                       io.faults);
                }
                return static_cast<int>(record.outcome);
            },
            /*first_index=*/t * per_temperature);
        result.stats.merge(stats);
    }

    if (result.thermocouple_faults > 0) {
        for (int dimm = 0; dimm < testbed.dimm_count(); ++dimm) {
            if (testbed.cross_check_alarm(dimm)) {
                ++result.cross_check_alarms;
            }
        }
    }
    if (io.journal != nullptr) {
        result.stats.corrupted_log_lines = io.journal->corrupted();
    }
    return result;
}

void write_dram_campaign_csv(std::ostream& out,
                             const dram_campaign_result& result) {
    csv_writer writer(out, {"temperature_c", "refresh_ms", "relaxation",
                            "pattern", "repetition", "failed_bits",
                            "ce_words", "ue_words", "outcome",
                            "regulation_dev_c"});
    for (const dram_run_record& record : result.records) {
        writer.write_row(
            {csv_number(record.temperature.value, 1),
             csv_number(record.refresh_period.value, 0),
             csv_number(record.refresh_period.value / 64.0, 1),
             std::string(to_string(record.pattern)),
             std::to_string(record.repetition),
             std::to_string(record.scan.failed_cells),
             std::to_string(record.scan.ce_words),
             std::to_string(record.scan.ue_words + record.scan.sdc_words),
             std::string(to_string(record.outcome)),
             csv_number(record.regulation_deviation_c, 2)});
    }
}

} // namespace gb
