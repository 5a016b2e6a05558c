// List-scheduler tests: the placement policy itself, and the equivalence
// property `gbreport utilization` depends on -- its simulation must be the
// scheduler's computation.  The property test replays randomized synthetic
// campaigns (one or several) through both paths and asserts agreement
// load-for-load and tick-for-tick.
#include "harness/schedule.hpp"

#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "harness/report/analysis.hpp"
#include "util/rng.hpp"

namespace gb {
namespace {

// --- placement policy ---------------------------------------------------

TEST(ScheduleTest, IssuesInIndexOrderToEarliestFinishingWorker) {
    list_scheduler scheduler(2);
    // t0 -> w0 [0,5), t1 -> w1 [0,3), t2 -> earliest finisher w1 [3,7),
    // t3 -> w0 [5,6).
    const scheduled_task t0 = scheduler.assign(5);
    const scheduled_task t1 = scheduler.assign(3);
    const scheduled_task t2 = scheduler.assign(4);
    const scheduled_task t3 = scheduler.assign(1);
    EXPECT_EQ(t0.worker, 0);
    EXPECT_EQ(t1.worker, 1);
    EXPECT_EQ(t2.worker, 1);
    EXPECT_EQ(t2.start_ticks, 3U);
    EXPECT_EQ(t2.finish_ticks, 7U);
    EXPECT_EQ(t3.worker, 0);
    EXPECT_EQ(t3.start_ticks, 5U);
    EXPECT_EQ(scheduler.makespan(), 7U);
    EXPECT_EQ(scheduler.serial_ticks(), 13U);
}

TEST(ScheduleTest, TiesGoToTheLowestWorkerId) {
    list_scheduler scheduler(3);
    // All workers idle at 0: the first three tasks land on 0, 1, 2 in
    // order, and an equal-finish tie afterwards resolves to the lowest id.
    EXPECT_EQ(scheduler.assign(2).worker, 0);
    EXPECT_EQ(scheduler.assign(2).worker, 1);
    EXPECT_EQ(scheduler.assign(2).worker, 2);
    const scheduled_task next = scheduler.assign(1);
    EXPECT_EQ(next.worker, 0);
    EXPECT_EQ(next.start_ticks, 2U);
}

TEST(ScheduleTest, WorkerCountClampsToAtLeastOne) {
    list_scheduler scheduler(0);
    EXPECT_EQ(scheduler.workers(), 1);
    scheduler.assign(7);
    EXPECT_EQ(scheduler.makespan(), 7U);
    list_scheduler negative(-4);
    EXPECT_EQ(negative.workers(), 1);
}

TEST(ScheduleTest, BarrierAlignsEveryWorkerToTheMakespan) {
    list_scheduler scheduler(2);
    scheduler.assign(10);
    scheduler.assign(2);
    scheduler.barrier();
    // Both workers restart at the makespan: the next task cannot begin
    // before the previous campaign fully drains.
    const scheduled_task next = scheduler.assign(1);
    EXPECT_EQ(next.start_ticks, 10U);
    EXPECT_EQ(next.worker, 0);
}

TEST(ScheduleTest, OneShotScheduleAccountsEveryTask) {
    const std::vector<std::uint64_t> durations{4, 1, 1, 1, 1};
    list_scheduler scheduler(2);
    for (const std::uint64_t ticks : durations) {
        scheduler.assign(ticks);
    }
    EXPECT_EQ(scheduler.workers(), 2);
    EXPECT_EQ(scheduler.serial_ticks(), 8U);
    EXPECT_EQ(scheduler.makespan(), 4U);
    const std::vector<worker_load>& loads = scheduler.loads();
    ASSERT_EQ(loads.size(), 2U);
    EXPECT_EQ(loads[0].busy_ticks + loads[1].busy_ticks, 8U);
    EXPECT_EQ(loads[0].tasks + loads[1].tasks, 5U);
}

// --- structural invariants over random inputs ---------------------------

TEST(SchedulePropertyTest, RandomSchedulesSatisfyTheInvariants) {
    rng seeds(2018);
    for (int trial = 0; trial < 50; ++trial) {
        const int workers = static_cast<int>(seeds.uniform_index(9)) + 1;
        const std::size_t count = seeds.uniform_index(40) + 1;
        std::vector<std::uint64_t> durations;
        std::uint64_t longest = 0;
        for (std::size_t i = 0; i < count; ++i) {
            durations.push_back(seeds.uniform_index(500));
            longest = std::max(longest, durations.back());
        }
        const std::uint64_t serial =
            std::accumulate(durations.begin(), durations.end(),
                            std::uint64_t{0});

        list_scheduler scheduler(workers);
        list_scheduler again(workers);
        std::vector<scheduled_task> placed;
        for (const std::uint64_t ticks : durations) {
            placed.push_back(scheduler.assign(ticks));
            // Pure function: same input, same placement.
            const scheduled_task repeat = again.assign(ticks);
            EXPECT_EQ(repeat.worker, placed.back().worker);
            EXPECT_EQ(repeat.start_ticks, placed.back().start_ticks);
        }
        const std::uint64_t makespan = scheduler.makespan();
        // Makespan bounds: no better than perfect division, no worse than
        // serial, never shorter than the longest single task.
        EXPECT_GE(makespan * workers, serial);
        EXPECT_LE(makespan, serial);
        EXPECT_GE(makespan, longest);
        EXPECT_EQ(scheduler.serial_ticks(), serial);
        // Load accounting closes.
        std::uint64_t busy = 0;
        std::uint64_t tasks = 0;
        for (const worker_load& load : scheduler.loads()) {
            busy += load.busy_ticks;
            tasks += load.tasks;
        }
        EXPECT_EQ(busy, serial);
        EXPECT_EQ(tasks, durations.size());
        // Placements are in range and internally consistent.
        for (std::size_t i = 0; i < durations.size(); ++i) {
            const scheduled_task& task = placed[i];
            EXPECT_GE(task.worker, 0);
            EXPECT_LT(task.worker, workers);
            EXPECT_EQ(task.finish_ticks - task.start_ticks, durations[i]);
            EXPECT_LE(task.finish_ticks, makespan);
        }
    }
}

// --- the simulation == live-scheduler property --------------------------

// Synthetic trace model: `simulate_utilization` only reads the campaign ->
// task duration hierarchy, so a model built directly from durations stands
// in for a parsed artifact.
report::trace_model make_model(
    const std::vector<std::vector<std::uint64_t>>& campaigns) {
    report::trace_model model;
    for (const std::vector<std::uint64_t>& durations : campaigns) {
        report::campaign_node node;
        node.name = "synthetic";
        node.declared_tasks = durations.size();
        for (std::uint64_t ticks : durations) {
            report::task_node task;
            task.index = node.tasks.size();
            task.ticks = ticks;
            node.tasks.push_back(task);
            node.task_ticks += ticks;
        }
        model.campaigns.push_back(std::move(node));
    }
    return model;
}

TEST(SchedulePropertyTest, UtilizationSimulationMatchesTheLiveScheduler) {
    // Randomized multi-campaign runs: the report-side simulation
    // (simulate_utilization) and a live scheduler replaying the same
    // durations must agree on every aggregate and every per-worker load.
    rng seeds(42);
    for (int trial = 0; trial < 25; ++trial) {
        const int workers = static_cast<int>(seeds.uniform_index(8)) + 1;
        const std::size_t campaign_count = seeds.uniform_index(4) + 1;
        std::vector<std::vector<std::uint64_t>> campaigns(campaign_count);
        for (std::vector<std::uint64_t>& durations : campaigns) {
            const std::size_t count = seeds.uniform_index(30) + 1;
            for (std::size_t i = 0; i < count; ++i) {
                durations.push_back(100 + seeds.uniform_index(400));
            }
        }

        const report::utilization_report simulated =
            simulate_utilization(make_model(campaigns), workers);

        list_scheduler live(workers);
        for (const std::vector<std::uint64_t>& durations : campaigns) {
            for (std::uint64_t ticks : durations) {
                live.assign(ticks);
            }
            live.barrier();
        }

        EXPECT_EQ(simulated.workers, live.workers());
        EXPECT_EQ(simulated.serial_ticks, live.serial_ticks());
        EXPECT_EQ(simulated.makespan, live.makespan());
        ASSERT_EQ(simulated.loads.size(), live.loads().size());
        for (std::size_t w = 0; w < simulated.loads.size(); ++w) {
            EXPECT_EQ(simulated.loads[w].busy_ticks,
                      live.loads()[w].busy_ticks);
            EXPECT_EQ(simulated.loads[w].tasks, live.loads()[w].tasks);
        }
    }
}

} // namespace
} // namespace gb
