// Deterministic parallel campaign execution.
//
// The paper's framework (Fig 2) evaluates thousands of (setup x repetition)
// cells per campaign.  Both campaign runners (CPU and DRAM) enumerate their
// sweep grids into a flat task list and hand it to this engine, which runs
// the tasks on a pool of worker threads.  Determinism is preserved by
// construction:
//
//   * every task owns an independent RNG seed derived with splitmix64 from
//     (base_seed, task_index) -- no draw ever crosses a task boundary;
//   * every task writes only to its own index-addressed result slot, so
//     collection order equals submission order;
//   * shared model state (chip, memory, profiles) is read-only during a run.
//
// Consequently the output is bitwise identical to the 1-worker (serial) run
// regardless of thread count or scheduling.  Worker count comes from the
// options, the GB_JOBS environment variable, or hardware_concurrency, in
// that order.
//
// The engine also models the rig's fault path: with an optional
// `fault_plan`, a serial pre-pass walks every task's attempts through
// `charge_attempts` (fault_injection.hpp) before dispatch -- the watchdog
// power-cycling the board within a bounded budget, charged as virtual
// downtime, never slept -- and a task whose budget is exhausted is handed
// to its owner once with `task_context::aborted` set so the campaign
// records an aborted-rig outcome instead of dying.  Fault draws are keyed
// by (task index, attempt), never by worker or wall clock, so a faulty
// campaign is exactly as reproducible as a healthy one.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace gb {

class campaign_journal;
class fault_plan;
class tracer;
class metrics_registry;
class timeline_recorder;

struct execution_options {
    /// Worker threads; <= 0 means GB_JOBS env var, else
    /// hardware_concurrency.
    int workers = 0;
    /// Root of the per-task seed derivation.
    std::uint64_t base_seed = 0;
    /// Campaign name used in progress/summary log lines (empty: quiet).
    std::string campaign;
    /// Injected rig faults (null: healthy rig, no fault walk runs).
    const fault_plan* faults = nullptr;
    /// ATTEMPTS per task, the first one included (>= 1): a task whose
    /// `retry_budget` attempts all fault is reported aborted, so 1 means no
    /// retry.  (fleet_service_config::retry_budget counts retries instead.)
    /// Only consulted when a fault plan is present.
    int retry_budget = 3;
    /// Journal-resume predicate: tasks whose absolute index tests true are
    /// re-issued with `task_context::replayed` set and no fault injection
    /// (their record was already recovered from the journal).  Called
    /// serially, once per task, before dispatch.
    std::function<bool(std::size_t)> already_complete;
    /// Deterministic trace sink (null: no tracing).  Each run allocates one
    /// phase, emits a campaign span on track_campaign and one task span per
    /// task on track_rig; worker w records into shard 1 + w, so the tracer
    /// needs at least workers + 1 shards (the default 257 always fits).
    tracer* trace = nullptr;
    /// Deterministic metrics sink (null: no metrics).  Same shard mapping
    /// as `trace`.
    metrics_registry* metrics = nullptr;
    /// Deterministic time-series sink (null: no timeline).  Workers record
    /// per-task outcomes into index-owned slots during the run; after the
    /// pool drains the engine walks them serially in index order and
    /// appends `engine.progress` / `engine.retries` / `engine.downtime_ms`
    /// samples at each progress decile, so the series are a pure function
    /// of campaign content at any worker count.
    timeline_recorder* timeline = nullptr;
    /// Live-status heartbeat file (empty: disabled).  While the run is in
    /// flight the engine atomically republishes a `running: true` snapshot
    /// with per-worker state at every progress decile; on completion it
    /// publishes a final `running: false` snapshot whose bytes are a pure
    /// function of campaign content (status.hpp).  Faults are planned
    /// before dispatch, so every live snapshot already carries the run's
    /// final retry, fault, abort, replay and downtime totals; only
    /// `tasks_done` and the `live` object advance.
    std::string status_path;
};

/// Rig I/O for a CPU or DRAM campaign runner: optional deterministic fault
/// injection, crash-safe journaling of completed records (journal.hpp; a
/// DRAM journal is read back by gbreport, not resumed), and the sinks the
/// runner forwards to its engine's execution_options.
struct campaign_io {
    const fault_plan* faults = nullptr;
    campaign_journal* journal = nullptr;
    /// ATTEMPTS per task, the first one included (>= 1); forwarded to
    /// execution_options::retry_budget.  Unlike the fleet's retry_budget,
    /// this is not a retry count: 1 means a faulted task aborts at once.
    int retry_budget = 3;
    tracer* trace = nullptr;
    metrics_registry* metrics = nullptr;
    timeline_recorder* timeline = nullptr;
    std::string status_path;
};

/// Everything a task may depend on.  Tasks must derive all randomness from
/// `seed` and must not read `worker` for anything that affects results.
struct task_context {
    std::size_t index = 0;  ///< position in the flat task list
    std::uint64_t seed = 0; ///< splitmix64(base_seed, index)
    int worker = 0;         ///< executing worker id (observability only)
    int attempt = 0;        ///< surviving attempt (faulted ones come before)
    /// Retry budget exhausted: the task must record an aborted-rig result
    /// for its slot instead of executing.
    bool aborted = false;
    /// Journal resume: the slot was prefilled from the journal; the task
    /// must only report the replayed outcome bucket.
    bool replayed = false;
};

/// Observability record of one engine run.  Timing and per-worker counts
/// are scheduling-dependent; the histogram, task count and fault/retry
/// counters are deterministic.
struct execution_stats {
    std::size_t tasks = 0;
    int workers = 0;
    double wall_seconds = 0.0;
    /// Tasks per outcome bucket (the task function's return value); tasks
    /// returning a negative bucket are not counted.
    std::vector<std::uint64_t> outcome_histogram;
    std::vector<std::uint64_t> tasks_per_worker;

    // Rig-fault resilience counters.  With a fault plan active every
    // injected fault is accounted for exactly once:
    //   watchdog_timeouts + board_crashes + power_switch_failures
    //     == retries + aborted_rig
    // (each faulted attempt either got retried or exhausted its task's
    // budget).  All six are deterministic for a given plan.
    std::uint64_t retries = 0;           ///< faulted attempts that retried
    std::uint64_t aborted_rig = 0;       ///< tasks with budget exhausted
    std::uint64_t watchdog_timeouts = 0; ///< injected hangs caught by wdt
    std::uint64_t board_crashes = 0;     ///< injected mid-run crashes
    std::uint64_t power_switch_failures = 0; ///< injected actuation faults
    std::uint64_t corrupted_log_lines = 0;   ///< journal lines mangled
    std::uint64_t replayed_tasks = 0;        ///< slots restored from journal
    /// Simulated rig recovery time (watchdog timeouts, reboots, power
    /// cycles) summed over injected faults; deterministic, unlike
    /// wall_seconds.
    double rig_downtime_s = 0.0;

    [[nodiscard]] double runs_per_second() const;
    /// Load balance in (0, 1]: mean tasks/worker over max tasks/worker.
    [[nodiscard]] double worker_utilization() const;
    /// Total injected rig faults (= retries + aborted_rig).
    [[nodiscard]] std::uint64_t injected_faults() const;
    /// Accumulate another run (multi-phase campaigns sum their phases).
    void merge(const execution_stats& other);
};

/// Per-task seed: splitmix64 stream over (base_seed, task_index).
[[nodiscard]] std::uint64_t derive_task_seed(std::uint64_t base_seed,
                                             std::uint64_t task_index);

/// Effective worker count for a request (<= 0: GB_JOBS, then
/// hardware_concurrency; always >= 1).  Garbage, zero or negative GB_JOBS
/// values are rejected with a warning and fall back to
/// hardware_concurrency.
[[nodiscard]] int resolve_worker_count(int requested);

class execution_engine {
public:
    /// A task runs one (setup, repetition) cell and returns its outcome
    /// bucket for the histogram (or a negative value for "no bucket").
    /// Tasks run concurrently: they must only write state owned by their
    /// own index.
    using task_fn = std::function<int(const task_context&)>;

    explicit execution_engine(execution_options options = {});

    /// Run `task_count` tasks; task i sees index `first_index + i` (the
    /// offset keeps seeds stable when a sweep is issued in chunks).  Blocks
    /// until all tasks finish; rethrows the first task exception after the
    /// pool drains.  Injected rig faults never throw: they retry within the
    /// budget and then surface as aborted tasks.  A run that rethrows has
    /// already charged the planned faults of tasks it never dispatched to
    /// its trace, metrics and status sinks.
    execution_stats run(std::size_t task_count, const task_fn& task,
                        std::size_t first_index = 0) const;

    [[nodiscard]] int workers() const { return workers_; }

private:
    execution_options options_;
    int workers_;
};

} // namespace gb
