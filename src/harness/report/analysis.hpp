// Post-run analyses over the observability artifacts: the consume side of
// the trace/metrics/journal stack.  Everything here is a pure function of
// the artifact bytes -- and since the emit side guarantees those bytes are
// identical at any GB_JOBS, every rendered report is too (the
// trace_determinism ctest pins this end to end through the gbreport CLI).
//
// Analyses:
//   * build_trace_model   -- reconstruct the campaign -> task -> fault
//                            hierarchy from a parsed Chrome trace using the
//                            exporter's deterministic layout order;
//   * render_summary      -- per-core Vmin / weak-cell rollup replayed from
//                            the task journal (the paper's parsing phase,
//                            automated);
//   * render_critical_path-- where the virtual ticks went: dominant
//                            campaign, heaviest tasks, fault downtime;
//   * simulate_utilization-- deterministic what-if list scheduling of the
//                            recorded task durations on K workers;
//   * render_timeline     -- fault / supervisor event timeline merged with
//                            supervisor metrics;
//   * diff_metrics        -- baseline-vs-candidate comparison with
//                            per-metric relative tolerances (the CI perf
//                            gate's engine).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "harness/report/artifacts.hpp"
#include "harness/schedule.hpp"

namespace gb::report {

// --- trace model --------------------------------------------------------

/// One engine task slot recovered from the rig track.
struct task_node {
    std::uint64_t index = 0;
    std::uint64_t ticks = 0; ///< virtual duration (quantum + downtime)
    int bucket = -1;
    std::uint64_t faulted_attempts = 0;
    bool aborted = false;
    bool replayed = false;
    /// Instant events laid inside this task's slot (injected rig faults).
    std::vector<const trace_event*> instants;
};

/// One engine run: a campaign-control span plus the task slots it owns.
struct campaign_node {
    std::string name;
    std::uint64_t declared_tasks = 0;
    std::uint64_t first_index = 0;
    std::uint64_t declared_faults = 0;
    std::uint64_t span_ticks = 0;  ///< exporter duration of the span
    std::uint64_t task_ticks = 0;  ///< sum of task durations
    std::uint64_t quantum_ticks = 0; ///< inferred per-task base cost
    std::vector<task_node> tasks;

    /// Ticks charged to simulated rig downtime (duration above the
    /// inferred quantum, summed over tasks).
    [[nodiscard]] std::uint64_t downtime_ticks() const;
};

struct trace_model {
    /// The parsed artifact, owned by the model: every trace_event pointer
    /// below points into `source.events`, so the model is self-contained
    /// and safely movable (moving a vector never relocates its elements).
    trace_artifact source;
    std::vector<campaign_node> campaigns;
    /// Supervisor-track events in deterministic layout order.
    std::vector<const trace_event*> supervisor_events;

    [[nodiscard]] std::uint64_t total_task_ticks() const;
};

/// Reconstruct the hierarchy: campaign spans on the campaign track own the
/// next `tasks` task spans on the rig track, in layout order.  Takes the
/// artifact by value -- the returned model owns it.  Fails with a one-line
/// diagnostic when the trace is internally inconsistent (e.g. a truncated
/// file that still parsed as JSON).
[[nodiscard]] std::optional<trace_model> build_trace_model(
    trace_artifact artifact, std::string& error);

// --- analyses -----------------------------------------------------------

/// Campaign summary reconstructed from the journal: per-(benchmark, cores)
/// safe-Vmin rollup for CPU records, per-temperature weak-cell/safe-period
/// rollup for DRAM records, plus line accounting.
void render_summary(std::ostream& out, const journal_artifact& journal);

/// Critical-path extraction: dominant campaign, top-N heaviest tasks with
/// their injected faults, downtime attribution.
void render_critical_path(std::ostream& out, const trace_model& model,
                          std::size_t top = 5);

/// Per-worker load of the simulated schedule (the scheduler's accounting
/// type, see harness/schedule.hpp).
using gb::worker_load;

/// Deterministic list-scheduling simulation of the recorded task durations
/// on `workers` workers -- the virtual-time answer to "where would an
/// N-worker campaign lose time".  The policy is `gb::list_scheduler`
/// (harness/schedule.hpp).
struct utilization_report {
    int workers = 1;
    std::uint64_t serial_ticks = 0; ///< sum of all task durations
    std::uint64_t makespan = 0;     ///< finish time of the simulated pool
    std::vector<worker_load> loads;

    [[nodiscard]] double efficiency() const;  ///< serial / (workers * makespan)
    [[nodiscard]] double speedup() const;     ///< serial / makespan
    [[nodiscard]] double imbalance() const;   ///< max busy / mean busy
};

[[nodiscard]] utilization_report simulate_utilization(
    const trace_model& model, int workers);
void render_utilization(std::ostream& out, const utilization_report& report);

/// Fault / supervisor timeline: campaign boundaries, injected-fault
/// instants and supervisor events in deterministic order, with an optional
/// supervisor/health metrics footer.
void render_timeline(std::ostream& out, const trace_model& model,
                     const metrics_snapshot* metrics = nullptr);

// --- metrics diff -------------------------------------------------------

struct diff_options {
    /// Relative tolerance applied to every metric without an override.
    /// 0 means exact match.
    double default_tolerance = 0.0;
    /// (pattern, tolerance) overrides matched against the bare metric name
    /// (histograms as "<name>.count"/"<name>.sum").  A pattern ending in
    /// '*' prefix-matches; exact patterns win over prefixes, longer
    /// prefixes over shorter.
    std::vector<std::pair<std::string, double>> overrides;
};

enum class diff_status : std::uint8_t {
    ok,         ///< within tolerance
    added,      ///< only in the candidate (not a failure)
    regression, ///< relative change above tolerance
    missing,    ///< in the baseline, absent from the candidate (failure)
};

struct diff_entry {
    std::string name; ///< bare metric name
    std::string kind; ///< counter / gauge / histogram
    double baseline = 0.0;
    double candidate = 0.0;
    /// Exact renderings (integer metrics -- counters, histogram
    /// count/sum -- print and compare at full 64-bit precision; a double
    /// would silently merge values differing only in the low bits).
    std::string baseline_text;
    std::string candidate_text;
    /// |candidate - baseline| / |baseline|; infinity when the baseline is
    /// zero and the candidate is not (a zero baseline admits only an
    /// exactly-zero candidate).
    double relative = 0.0;
    double tolerance = 0.0;
    diff_status status = diff_status::ok;
};

struct diff_report {
    std::vector<diff_entry> entries; ///< name-sorted
    std::size_t regressions = 0;
    std::size_t missing = 0;
    std::size_t added = 0;

    [[nodiscard]] bool failed() const { return regressions + missing > 0; }
};

[[nodiscard]] diff_report diff_metrics(const metrics_snapshot& baseline,
                                       const metrics_snapshot& candidate,
                                       const diff_options& options);
void render_diff(std::ostream& out, const diff_report& report);

/// Tolerance resolution, exposed for tests: exact > longest prefix >
/// default.
[[nodiscard]] double tolerance_for(const diff_options& options,
                                   std::string_view name);

// --- sdc audit ----------------------------------------------------------

/// Rollup of the integrity subsystem's `integrity.*` gauges: how many
/// silent corruptions were injected, how each was caught (quorum outvote,
/// audit re-probe, even-quorum stalemate), how many were corrected in
/// place, and -- the number the CI gate cares about -- how many escaped
/// into the served snapshot.
struct audit_report {
    /// False when the metrics artifact carries no `integrity.*` gauges at
    /// all (the defenses were off; there is nothing to audit).
    bool present = false;
    std::uint64_t injected = 0;
    std::uint64_t detected = 0;
    std::uint64_t outvoted = 0;
    std::uint64_t audit_caught = 0; ///< integrity.audit_mismatches
    std::uint64_t stalemates = 0;
    std::uint64_t corrected = 0;
    std::uint64_t escaped = 0;
    std::uint64_t audits = 0;
    std::uint64_t dissents = 0;
    std::uint64_t blacklisted_rigs = 0;
    std::uint64_t repaired_entries = 0;
    std::uint64_t replica_executions = 0;

    [[nodiscard]] bool clean() const { return escaped == 0; }
};

[[nodiscard]] audit_report build_audit_report(
    const metrics_snapshot& metrics);
void render_audit(std::ostream& out, const audit_report& report);

} // namespace gb::report
