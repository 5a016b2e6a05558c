// Live-status heartbeat tests: the serialized schema, the strictness of
// its one reader (it accepts exactly what the writer renders), the
// determinism of the final snapshot across worker counts, and the
// atomicity contract -- a reader polling the file must never observe a
// partially written document, because every publish goes through
// write-temp-then-rename.
#include "harness/status.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "harness/framework.hpp"
#include "record_mutations.hpp"
#include "util/rng.hpp"
#include "workloads/cpu_profiles.hpp"

namespace gb {
namespace {

std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/// A fleet state snapshot with every section filled: bins, a quarantine,
/// a probed and an unprobed cohort, and an observatory rollup whose
/// labels need escaping.
campaign_status fleet_snapshot() {
    campaign_status status;
    status.campaign = "fleet";
    status.tasks_total = 72;
    status.tasks_done = 72;
    status.retries = 3;
    status.injected_faults = 5;
    status.aborted_rig = 2;
    status.replayed = 36;
    status.rig_downtime_ms = 120000;
    fleet_status& fleet = status.fleet.emplace();
    fleet.epoch = 2;
    fleet.nodes = 10000;
    fleet.cohorts = 2;
    fleet.probes_executed = 34;
    fleet.cache_hits = 36;
    fleet.cache_entries = 34;
    fleet.power_nominal_w = 143121.72014142436;
    fleet.power_binned_w = 100.0;
    fleet.supervised_cohorts = 1;
    fleet.supervised_epochs = 4;
    fleet.bins = {{-5, 1}, {910, 227}, {980, 4543}};
    fleet.degraded.cohorts = 1;
    fleet.degraded.nodes = 2500;
    fleet.degraded.quarantined = {{"TSS", 1, 0, 0, 2500}};
    fleet.cohorts_top = {{{"TTT", 0, 0, 0, 7500}, 2, 923.8693452773445, 0},
                         {{"TSS", 1, 0, 0, 2500}, 1, 0.0, -1}};
    fleet.timeline = status_timeline{
        40, 160, 2, {"vmin-drift:vmin.TTT.0.0.0", "hot\"x\x01:a\\b"}, 3};
    return status;
}

TEST(StatusTest, SchemaRoundTrips) {
    campaign_status status;
    status.campaign = "milc";
    status.running = true;
    status.tasks_total = 150;
    status.tasks_done = 42;
    status.retries = 3;
    status.injected_faults = 4;
    status.aborted_rig = 1;
    status.replayed = 2;
    status.rig_downtime_ms = 110000;
    status.workers = 2;
    status.worker_task = {7, -1};
    status.wall_elapsed_s = 1.5;

    const std::string live = write_status_json(status);
    EXPECT_EQ(live,
              "{\"campaign\":\"milc\",\"running\":true,\"tasks_total\":150,"
              "\"tasks_done\":42,\"retries\":3,\"injected_faults\":4,"
              "\"aborted_rig\":1,\"replayed\":2,\"rig_downtime_ms\":110000,"
              "\"live\":{\"workers\":2,\"worker_task\":[7,-1],"
              "\"wall_elapsed_s\":1.5}}\n");
    std::string error;
    const auto parsed = read_status_json(live, error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_TRUE(parsed->running);
    EXPECT_EQ(parsed->tasks_done, 42U);
    EXPECT_EQ(parsed->workers, 2);
    ASSERT_EQ(parsed->worker_task.size(), 2U);
    EXPECT_EQ(parsed->worker_task[0], 7);
    EXPECT_EQ(parsed->worker_task[1], -1);
    EXPECT_EQ(parsed->wall_elapsed_s, 1.5);
    EXPECT_FALSE(parsed->fleet.has_value());

    // The final flavour omits the scheduling-dependent `live` object.
    status.running = false;
    const std::string final_snapshot = write_status_json(status);
    EXPECT_EQ(final_snapshot.find("live"), std::string::npos);
    EXPECT_EQ(final_snapshot.find("wall"), std::string::npos);
    const auto parsed_final = read_status_json(final_snapshot, error);
    ASSERT_TRUE(parsed_final.has_value()) << error;
    EXPECT_EQ(parsed_final->workers, 0);
    EXPECT_TRUE(parsed_final->worker_task.empty());

    // A fleet snapshot reads back field for field.
    const std::string fleet_bytes = write_status_json(fleet_snapshot());
    const auto fleet = read_status_json(fleet_bytes, error);
    ASSERT_TRUE(fleet.has_value()) << error;
    ASSERT_TRUE(fleet->fleet.has_value());
    EXPECT_EQ(fleet->rig_downtime_ms, 120000U);
    EXPECT_EQ(fleet->fleet->bins.front().first, -5);
    EXPECT_EQ(fleet->fleet->degraded.quarantined.front().corner, "TSS");
    EXPECT_EQ(fleet->fleet->cohorts_top.back().bucket, -1);
    EXPECT_EQ(fleet->fleet->cohorts_top.front().req_mv, 923.8693452773445);
    ASSERT_TRUE(fleet->fleet->timeline.has_value());
    EXPECT_EQ(fleet->fleet->timeline->firing,
              fleet_snapshot().fleet->timeline->firing);
    EXPECT_EQ(write_status_json(*fleet), fleet_bytes);
}

TEST(StatusTest, ReaderAcceptsOnlyWhatTheWriterRenders) {
    campaign_status live;
    live.campaign = "milc";
    live.running = true;
    live.tasks_total = 150;
    live.workers = 2;
    live.worker_task = {7, -1};
    live.wall_elapsed_s = 0.25;
    campaign_status final_status = live;
    final_status.running = false;
    for (const campaign_status& status :
         {live, final_status, fleet_snapshot()}) {
        const std::string snapshot = write_status_json(status);
        std::string error;
        ASSERT_TRUE(read_status_json(snapshot, error).has_value()) << error;
        for (const test::json_mutation& mutation :
             test::json_mutations(snapshot)) {
            const std::string& what = mutation.what;
            const std::string& mutated = mutation.line;
            const auto parsed = read_status_json(mutated, error);
            // The two optional sections may go: the writer renders their
            // absence too.
            const std::vector<std::string> fleet{"fleet"};
            if ((what == "dropped \"fleet\"" && mutation.in.empty()) ||
                (what == "dropped \"timeline\"" && mutation.in == fleet)) {
                ASSERT_TRUE(parsed.has_value()) << what << ": " << error;
                EXPECT_EQ(write_status_json(*parsed), mutated) << what;
                continue;
            }
            EXPECT_FALSE(parsed.has_value()) << what << ": " << mutated;
            EXPECT_EQ(error.rfind("status: byte ", 0), 0U) << error;
        }
    }

    // The diagnostic names the first byte that differs.
    const std::string snapshot = write_status_json(fleet_snapshot());
    std::string edited = snapshot;
    const std::size_t epoch = edited.find("\"epoch\":2") + 8;
    edited.replace(epoch, 1, "2.0");
    std::string error;
    EXPECT_FALSE(read_status_json(edited, error).has_value());
    EXPECT_EQ(error, "status: byte " + std::to_string(epoch + 1) +
                         ": not what the status writer renders");
    EXPECT_FALSE(read_status_json("", error).has_value());
    EXPECT_EQ(error, "status: byte 0: not what the status writer renders");

    // Random byte flips: whatever still reads is its own rendering.
    rng flips(29);
    for (int trial = 0; trial < 2000; ++trial) {
        std::string flipped = snapshot;
        flipped[flips.uniform_index(flipped.size())] =
            static_cast<char>(flips.uniform_index(256));
        if (const auto parsed = read_status_json(flipped, error)) {
            EXPECT_EQ(write_status_json(*parsed), flipped);
        }
    }
}

TEST(StatusTest, PublishIsAtomicAndLeavesNoTemp) {
    const std::string path = temp_path("status_publish.json");
    campaign_status status;
    status.campaign = "atomic";
    status.tasks_total = 1;
    ASSERT_TRUE(publish_status(path, status));
    EXPECT_EQ(slurp(path), write_status_json(status));
    std::ifstream temp(path + ".tmp");
    EXPECT_FALSE(temp.good());

    // A failed publish (unwritable directory) must leave the previous
    // snapshot intact.
    EXPECT_FALSE(
        publish_status(temp_path("no_such_dir/status.json"), status));
    EXPECT_EQ(slurp(path), write_status_json(status));
}

TEST(StatusTest, ReaderNeverObservesPartialWrite) {
    const std::string path = temp_path("status_atomicity.json");
    campaign_status status;
    status.campaign = "atomicity";
    status.running = true;
    status.tasks_total = 1000;
    status.workers = 1;
    status.worker_task = {0};
    ASSERT_TRUE(publish_status(path, status));

    std::atomic<bool> stop{false};
    std::atomic<int> reads{0};
    std::atomic<int> bad{0};
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const std::string text = slurp(path);
            if (text.empty()) {
                continue; // raced the open, not a partial document
            }
            std::string error;
            if (!read_status_json(text, error)) {
                bad.fetch_add(1, std::memory_order_relaxed);
            }
            reads.fetch_add(1, std::memory_order_relaxed);
        }
    });
    for (std::uint64_t i = 0; i < 500; ++i) {
        status.tasks_done = i;
        status.worker_task = {static_cast<std::int64_t>(i)};
        status.wall_elapsed_s = static_cast<double>(i) * 0.001;
        ASSERT_TRUE(publish_status(path, status));
    }
    stop.store(true, std::memory_order_relaxed);
    reader.join();
    EXPECT_GT(reads.load(), 0);
    EXPECT_EQ(bad.load(), 0) << "a reader saw a partially written snapshot";
}

TEST(StatusTest, FinalSnapshotIsWorkerCountInvariant) {
    // The engine's final snapshot is a pure function of campaign content:
    // running the same campaign at 1 and 4 workers must leave identical
    // bytes behind.
    const kernel& program = find_cpu_benchmark("milc").loop;
    std::string bytes[2];
    int slot = 0;
    for (const int workers : {1, 4}) {
        const std::string path =
            temp_path("status_final_" + std::to_string(workers) + ".json");
        chip_model chip(make_chip(process_corner::ttt), make_xgene2_pdn());
        characterization_framework framework(chip, /*seed=*/2018);
        campaign_spec spec;
        spec.benchmark = "milc";
        spec.repetitions = 3;
        spec.workers = workers;
        for (double v = 980.0; v >= 940.0; v -= 10.0) {
            characterization_setup setup;
            setup.voltage = millivolts{v};
            setup.cores = {6};
            spec.setups.push_back(setup);
        }
        campaign_io io;
        io.status_path = path;
        (void)framework.run_campaign(spec, program, io);
        bytes[slot++] = slurp(path);
    }
    EXPECT_FALSE(bytes[0].empty());
    EXPECT_EQ(bytes[0], bytes[1]);

    // And it parses back as a finished snapshot covering every task.
    std::string error;
    const auto parsed = read_status_json(bytes[0], error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_FALSE(parsed->running);
    EXPECT_EQ(parsed->tasks_total, 15U);
    EXPECT_EQ(parsed->tasks_done, parsed->tasks_total);
}

} // namespace
} // namespace gb
