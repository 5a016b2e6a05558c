// DRAM characterization campaigns: the memory-side counterpart of the CPU
// campaign runner.  A campaign sweeps (temperature x refresh period x data
// pattern) setups; for each setup the testbed regulates the DIMMs, the MCU
// is programmed through the same bounded path SLIMpro uses, a scan runs,
// and the parsing phase classifies the outcome (clean / CE-contained /
// uncorrectable) into records and the final CSV -- the flow behind Table I
// and Fig 8.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "dram/memory_system.hpp"
#include "harness/execution_engine.hpp"
#include "thermal/testbed.hpp"
#include "util/units.hpp"

namespace gb {

struct dram_campaign_spec {
    std::vector<celsius> temperatures{celsius{50.0}, celsius{60.0}};
    std::vector<milliseconds> refresh_periods{milliseconds{64.0},
                                              milliseconds{2283.0}};
    std::vector<data_pattern> patterns{
        data_pattern::all_zeros, data_pattern::all_ones,
        data_pattern::checkerboard, data_pattern::random_data};
    /// Scan repetitions per setup (fresh seeds; with VRT enabled these
    /// observe different states).
    int repetitions = 1;
    std::uint64_t base_seed = 2018;
    /// Worker threads for the execution engine (0: GB_JOBS env var, then
    /// hardware_concurrency).  Results are identical for any value.
    int workers = 0;

    void validate() const;
};

/// How a DRAM setup's scan ended, in the CPU campaign's vocabulary.
enum class dram_run_outcome : std::uint8_t {
    clean,         ///< no failing bits at all
    contained,     ///< failures present, every word corrected (CE)
    uncorrectable, ///< at least one UE or miscorrection
    aborted_rig    ///< rig retry budget exhausted; no scan data
};

inline constexpr std::size_t dram_run_outcome_count = 4;

[[nodiscard]] std::string_view to_string(dram_run_outcome outcome);

struct dram_run_record {
    celsius temperature{0.0};
    milliseconds refresh_period{0.0};
    data_pattern pattern = data_pattern::all_zeros;
    int repetition = 0;
    scan_result scan;
    dram_run_outcome outcome = dram_run_outcome::clean;
    /// Worst regulation deviation during this setup's soak.
    double regulation_deviation_c = 0.0;
};

struct dram_campaign_result {
    dram_campaign_spec spec;
    std::vector<dram_run_record> records;
    /// Engine observability summed over the per-temperature sweeps (timing
    /// fields are scheduling-dependent; records above are not).
    execution_stats stats;
    /// Thermocouple mounting faults the fault plan injected, and how many
    /// of them the testbed's SPD cross-check caught (alarm raised, control
    /// fell back to the on-die sensor).
    std::uint64_t thermocouple_faults = 0;
    std::uint64_t cross_check_alarms = 0;

    /// Largest refresh period at which every record of a temperature is
    /// contained (or clean); nominal if none.  Aborted-rig records count
    /// as unsafe: a missing measurement must not certify a period.
    [[nodiscard]] milliseconds max_safe_period(celsius temperature) const;
    [[nodiscard]] std::uint64_t uncorrectable_records() const;
    [[nodiscard]] std::uint64_t aborted_records() const;
};

/// Run the campaign: the testbed soaks the DIMMs at each temperature
/// (serial -- thermal state is shared), then the (period, pattern,
/// repetition) grid of scans runs on the parallel execution engine.  Scans
/// are const against the memory system (the refresh period is a per-task
/// parameter), and scan N keeps the legacy serial seed `base_seed + N`, so
/// the records and CSV are byte-identical to the historical serial runner
/// for any worker count.  The memory's study limits must cover the spec's
/// extremes.
[[nodiscard]] dram_campaign_result run_dram_campaign(
    memory_system& memory, thermal_testbed& testbed,
    const dram_campaign_spec& spec, const campaign_io& io = {});

/// Final CSV of the parsing phase.
void write_dram_campaign_csv(std::ostream& out,
                             const dram_campaign_result& result);

} // namespace gb
