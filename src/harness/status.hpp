// Live-status heartbeat for long campaigns: a single-file JSON snapshot a
// dashboard (or `gbreport status`) can poll while the rig grinds through a
// sweep.  Snapshots are published atomically (harness/publish.hpp) --
// written to a sibling temp file and renamed over the target -- so a
// reader never observes a half-written document, even mid-crash.
//
// Two snapshot flavours share one schema:
//   * live  (`running: true`)  -- progress counters plus a `live` object
//     with per-worker state and wall time; scheduling-dependent by nature.
//   * final (`running: false`) -- counters only, no `live` object.  The
//     final bytes are a pure function of campaign content and are
//     byte-identical at any GB_JOBS, like every other artifact.
// A fleet service's state snapshot is a final snapshot with a `fleet`
// object (fleet_status) after the counters.
//
// This module is the only code that knows the snapshot bytes: one writer
// and one reader walk the same field declarations, and the reader accepts
// a document only if the writer renders it back byte for byte.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gb {

/// One cohort as the fleet snapshot names it.
struct status_cohort {
    std::string corner; ///< process-corner name ("TTT")
    std::uint64_t workload_class = 0;
    std::uint64_t operating_point = 0;
    std::uint64_t variant = 0;
    std::uint64_t members = 0; ///< nodes in the cohort
};

/// A `cohorts_top` row: the cohort and its latest probe.
struct status_cohort_probe {
    status_cohort cohort;
    std::uint64_t probes = 0; ///< campaigns that requested it
    double req_mv = 0.0;      ///< 0 until probed
    int bucket = -1;          ///< -1 until probed
};

/// The fleet observatory rollup (present only with a timeline).
struct status_timeline {
    std::uint64_t series = 0;
    std::uint64_t samples = 0;
    std::uint64_t rules = 0;
    std::vector<std::string> firing; ///< sorted "rule:series" labels
    std::uint64_t events = 0;
};

/// The `fleet` object of a fleet state snapshot.
struct fleet_status {
    std::uint64_t epoch = 0;
    std::uint64_t nodes = 0;
    std::uint64_t cohorts = 0;
    std::uint64_t probes_executed = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_entries = 0;
    double power_nominal_w = 0.0;
    double power_binned_w = 0.0;
    std::uint64_t supervised_cohorts = 0;
    std::uint64_t supervised_epochs = 0;
    /// (voltage class mV, nodes), ascending.
    std::vector<std::pair<std::int64_t, std::uint64_t>> bins;
    /// Cohorts served degraded at the nominal bin cap: true counts, and a
    /// roster capped like `cohorts_top`.
    struct quarantine {
        std::uint64_t cohorts = 0;
        std::uint64_t nodes = 0;
        std::vector<status_cohort> quarantined;
    } degraded;
    std::vector<status_cohort_probe> cohorts_top; ///< capped; see cohorts
    std::optional<status_timeline> timeline;
};

struct campaign_status {
    std::string campaign;
    bool running = false;
    std::uint64_t tasks_total = 0;
    std::uint64_t tasks_done = 0;
    std::uint64_t retries = 0;
    std::uint64_t injected_faults = 0;
    std::uint64_t aborted_rig = 0;
    std::uint64_t replayed = 0;
    std::uint64_t rig_downtime_ms = 0;
    /// Live-only fields, serialized under a `live` object when `running`
    /// and omitted entirely from the final snapshot.
    int workers = 0;
    std::vector<std::int64_t> worker_task; ///< current index, -1 idle
    double wall_elapsed_s = 0.0;
    /// Fleet state snapshots only.
    std::optional<fleet_status> fleet;
};

/// Serialize a snapshot (single line, trailing newline).  Field order is
/// fixed; the `live` object appears only when `running` is true, and the
/// `fleet` object only when set.
[[nodiscard]] std::string write_status_json(const campaign_status& status);

/// The snapshot `text` holds, if write_status_json renders it back to
/// exactly `text` (trailing newline included).  Otherwise nullopt, and
/// `error` reads "status: byte N: ..." with N the first byte that differs
/// from the writer's rendering.
[[nodiscard]] std::optional<campaign_status> read_status_json(
    std::string_view text, std::string& error);

/// Atomically publish a snapshot to `path` (publish_atomic, no chaos).
bool publish_status(const std::string& path, const campaign_status& status);

} // namespace gb
