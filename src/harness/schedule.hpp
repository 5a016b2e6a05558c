// Deterministic list scheduling for the report simulation.
//
// `gbreport utilization` answers "where would a K-worker campaign lose
// time" by replaying recorded task durations through a list scheduler.
//
// Policy (unchanged from the original report simulation): tasks are issued
// in index order to the earliest-finishing worker, ties to the lowest
// worker id.  Everything is virtual ticks; nothing reads a clock, so a
// schedule is a pure function of (durations, worker count).
#pragma once

#include <cstdint>
#include <vector>

namespace gb {

/// Per-worker accumulated load of a schedule.
struct worker_load {
    std::uint64_t busy_ticks = 0;
    std::uint64_t tasks = 0;
};

/// One task's placement: which worker runs it and when (virtual ticks).
struct scheduled_task {
    int worker = 0;
    std::uint64_t start_ticks = 0;
    std::uint64_t finish_ticks = 0;
};

/// Incremental list scheduler.  `assign` places the next task; `barrier`
/// aligns every worker to the current makespan (campaigns run back to
/// back: no task of the next campaign starts before the previous one
/// fully drains, exactly like sequential engine runs).
class list_scheduler {
public:
    /// `workers` is clamped to >= 1.
    explicit list_scheduler(int workers);

    /// Place the next task on the earliest-finishing worker (ties to the
    /// lowest id) and account its load.
    scheduled_task assign(std::uint64_t duration_ticks);

    /// Campaign boundary: every worker's next start is the makespan so
    /// far.
    void barrier();

    [[nodiscard]] int workers() const {
        return static_cast<int>(finish_.size());
    }
    /// Finish time of the latest-finishing worker.
    [[nodiscard]] std::uint64_t makespan() const;
    /// Sum of all assigned durations.
    [[nodiscard]] std::uint64_t serial_ticks() const { return serial_; }
    [[nodiscard]] const std::vector<worker_load>& loads() const {
        return loads_;
    }

private:
    std::vector<std::uint64_t> finish_;
    std::vector<worker_load> loads_;
    std::uint64_t serial_ = 0;
};

} // namespace gb
