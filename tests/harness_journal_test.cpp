// The crash-safe journal and the resume contract: kill a CPU campaign
// after K of N journal lines, resume from the truncated journal, and the
// records and CSV are bitwise identical to the uninterrupted run -- at 1
// and 8 workers, even when the fault plan was garbling journal lines.  A
// DRAM campaign's journal reads back through gbreport's loader.
#include "harness/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "harness/fault_injection.hpp"
#include "harness/framework.hpp"
#include "harness/logfile.hpp"
#include "harness/report/artifacts.hpp"
#include "workloads/cpu_profiles.hpp"

namespace gb {
namespace {

campaign_spec cpu_spec(int workers) {
    campaign_spec spec;
    spec.benchmark = "milc";
    spec.repetitions = 5;
    spec.workers = workers;
    for (const double v : {980.0, 920.0, 880.0, 860.0}) {
        characterization_setup setup;
        setup.voltage = millivolts{v};
        setup.cores = {6};
        spec.setups.push_back(setup);
    }
    return spec;
}

std::string cpu_csv(const campaign_result& result) {
    std::ostringstream out;
    write_campaign_csv(out, result);
    return out.str();
}

/// First `lines` journal lines (a kill at a line boundary).
std::string truncate_lines(const std::string& journal, std::size_t lines) {
    std::size_t pos = 0;
    for (std::size_t i = 0; i < lines; ++i) {
        pos = journal.find('\n', pos);
        if (pos == std::string::npos) {
            return journal;
        }
        ++pos;
    }
    return journal.substr(0, pos);
}

TEST(journal_test, prefix_roundtrips_and_rejects_garbage) {
    std::ostringstream sink;
    campaign_journal journal(sink);
    journal.append(42, "run=milc v=900 outcome=OK wdt=0");
    EXPECT_EQ(journal.appended(), 1u);
    EXPECT_EQ(journal.corrupted(), 0u);

    std::size_t index = 0;
    std::string_view payload;
    const std::string line =
        sink.str().substr(0, sink.str().size() - 1); // strip '\n'
    ASSERT_TRUE(parse_journal_prefix(line, index, payload));
    EXPECT_EQ(index, 42u);
    EXPECT_EQ(payload, "run=milc v=900 outcome=OK wdt=0");

    EXPECT_FALSE(parse_journal_prefix("", index, payload));
    EXPECT_FALSE(parse_journal_prefix("run=milc", index, payload));
    EXPECT_FALSE(parse_journal_prefix("task=", index, payload));
    EXPECT_FALSE(parse_journal_prefix("task=abc run=x", index, payload));
    EXPECT_FALSE(parse_journal_prefix("task=7", index, payload));
    EXPECT_FALSE(parse_journal_prefix("task=-7 run=x", index, payload));
}

TEST(journal_test, replay_recovers_records_and_counts_skips) {
    const chip_model ttt(make_ttt_chip(), make_xgene2_pdn());
    characterization_framework framework(ttt, 2018);
    std::ostringstream sink;
    campaign_journal journal(sink);
    campaign_io io;
    io.journal = &journal;
    const campaign_result result = framework.run_campaign(
        cpu_spec(4), find_cpu_benchmark("milc").loop, io);
    EXPECT_EQ(journal.appended(), result.records.size());

    // Garbage between the lines must be skipped, not break the replay.
    std::string text = "U-Boot 2016.01 (X-Gene2)\n" + sink.str() +
                       "task=3 run=milc v=9\x01\n";
    std::istringstream in(text);
    const cpu_journal_replay replay = replay_cpu_journal(in);
    EXPECT_EQ(replay.completed.size(), result.records.size());
    EXPECT_EQ(replay.skipped, 2u);
    for (const auto& [index, record] : replay.completed) {
        ASSERT_LT(index, result.records.size());
        EXPECT_EQ(to_log_line(record),
                  to_log_line(result.records[index]));
    }
}

TEST(journal_test, cpu_resume_is_bitwise_identical_at_any_kill_point) {
    const chip_model ttt(make_ttt_chip(), make_xgene2_pdn());
    const kernel& loop = find_cpu_benchmark("milc").loop;

    characterization_framework reference(ttt, 2018);
    const campaign_result uninterrupted =
        reference.run_campaign(cpu_spec(1), loop);
    const std::string reference_csv = cpu_csv(uninterrupted);

    std::ostringstream sink;
    {
        characterization_framework journaled(ttt, 2018);
        campaign_journal journal(sink);
        campaign_io io;
        io.journal = &journal;
        (void)journaled.run_campaign(cpu_spec(1), loop, io);
    }
    const std::string full_journal = sink.str();
    const std::size_t total = uninterrupted.records.size();

    for (const std::size_t kill_after :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, total / 2,
          total - 1, total}) {
        const std::string truncated =
            truncate_lines(full_journal, kill_after);
        for (const int workers : {1, 8}) {
            characterization_framework resumed_fw(ttt, 2018);
            std::istringstream journal_in(truncated);
            const campaign_result resumed = resumed_fw.resume_campaign(
                cpu_spec(workers), loop, journal_in);
            EXPECT_EQ(resumed.stats.replayed_tasks, kill_after);
            EXPECT_EQ(cpu_csv(resumed), reference_csv)
                << "kill_after=" << kill_after << " workers=" << workers;
            EXPECT_EQ(resumed.watchdog_resets,
                      uninterrupted.watchdog_resets);
            EXPECT_EQ(resumed.summarize().total(),
                      uninterrupted.summarize().total());
        }
    }
}

TEST(journal_test, resumed_run_keeps_journaling_the_remainder) {
    const chip_model ttt(make_ttt_chip(), make_xgene2_pdn());
    const kernel& loop = find_cpu_benchmark("milc").loop;

    std::ostringstream sink;
    {
        characterization_framework framework(ttt, 2018);
        campaign_journal journal(sink);
        campaign_io io;
        io.journal = &journal;
        (void)framework.run_campaign(cpu_spec(1), loop, io);
    }
    const std::size_t total = cpu_spec(1).setups.size() * 5;
    const std::string truncated = truncate_lines(sink.str(), total / 3);

    // Resume with a fresh journal attached: only the re-run tail is
    // appended, so a second kill is just as recoverable.
    std::ostringstream resumed_sink;
    campaign_journal resumed_journal(resumed_sink);
    campaign_io io;
    io.journal = &resumed_journal;
    characterization_framework framework(ttt, 2018);
    std::istringstream journal_in(truncated);
    const campaign_result resumed =
        framework.resume_campaign(cpu_spec(2), loop, journal_in, io);
    EXPECT_EQ(resumed_journal.appended(), total - total / 3);
    EXPECT_EQ(resumed.stats.replayed_tasks, total / 3);

    // The original prefix plus the resumed tail replay to the full run.
    std::istringstream combined(truncated + resumed_sink.str());
    const cpu_journal_replay replay = replay_cpu_journal(combined);
    EXPECT_EQ(replay.completed.size(), total);
    EXPECT_EQ(replay.skipped, 0u);
}

TEST(journal_test, corrupted_journal_lines_rerun_and_still_match) {
    const chip_model ttt(make_ttt_chip(), make_xgene2_pdn());
    const kernel& loop = find_cpu_benchmark("milc").loop;

    characterization_framework reference(ttt, 2018);
    const std::string reference_csv =
        cpu_csv(reference.run_campaign(cpu_spec(1), loop));

    // Journal with a fault plan that only garbles log lines (no run
    // faults), so the on-disk journal loses records the in-memory run kept.
    fault_plan_config config;
    config.seed = 3;
    config.log_corruption_rate = 0.3;
    const fault_plan plan(config);
    std::ostringstream sink;
    std::uint64_t corrupted = 0;
    {
        characterization_framework framework(ttt, 2018);
        campaign_journal journal(sink);
        campaign_io io;
        io.journal = &journal;
        io.faults = &plan;
        const campaign_result result =
            framework.run_campaign(cpu_spec(1), loop, io);
        EXPECT_EQ(cpu_csv(result), reference_csv);
        corrupted = journal.corrupted();
        EXPECT_EQ(result.stats.corrupted_log_lines, corrupted);
    }
    ASSERT_GT(corrupted, 0u);

    // Resume replays only the intact lines; the corrupted ones re-run, and
    // the final CSV is still bitwise identical.
    const std::size_t total = cpu_spec(1).setups.size() * 5;
    for (const int workers : {1, 8}) {
        characterization_framework framework(ttt, 2018);
        std::istringstream journal_in(sink.str());
        const campaign_result resumed =
            framework.resume_campaign(cpu_spec(workers), loop, journal_in);
        EXPECT_EQ(resumed.stats.replayed_tasks, total - corrupted);
        EXPECT_EQ(cpu_csv(resumed), reference_csv);
    }
}

dram_campaign_spec dram_spec(int workers) {
    dram_campaign_spec spec;
    spec.temperatures = {celsius{50.0}, celsius{60.0}};
    spec.refresh_periods = {milliseconds{64.0}, milliseconds{2283.0}};
    spec.repetitions = 2;
    spec.workers = workers;
    return spec;
}

TEST(journal_test, dram_journal_reads_back_through_the_report_loader) {
    // A DRAM campaign is not resumed, but its journal is a gbreport
    // artifact: every scan record reads back bitwise, and a record still
    // being appended is reported as a truncated tail, not parsed.
    const study_limits limits{celsius{62.0}, milliseconds{2283.0}};
    const std::string path =
        ::testing::TempDir() + "gb_journal_test_dram.journal";
    std::remove(path.c_str());
    dram_campaign_result result;
    {
        memory_system memory(single_dimm_geometry(), retention_model{},
                             2018, limits);
        thermal_testbed testbed(1, thermal_plant_config{}, 7);
        campaign_journal journal(path);
        dram_campaign_io io;
        io.journal = &journal;
        result = run_dram_campaign(memory, testbed, dram_spec(8), io);
    }
    {
        std::ofstream tail(path, std::ios::app);
        tail << "task=" << result.records.size() << " dram";
    }
    std::string error;
    const std::optional<report::journal_artifact> artifact =
        report::load_journal_file(path, error);
    ASSERT_TRUE(artifact.has_value()) << error;
    EXPECT_TRUE(artifact->truncated_tail);
    EXPECT_EQ(artifact->skipped, 0u);
    EXPECT_TRUE(artifact->cpu.completed.empty());
    ASSERT_EQ(artifact->dram.completed.size(), result.records.size());
    for (const auto& [index, record] : artifact->dram.completed) {
        ASSERT_LT(index, result.records.size());
        EXPECT_EQ(to_log_line(record), to_log_line(result.records[index]));
    }
    std::remove(path.c_str());
}

TEST(journal_test, partial_tail_is_reported_not_parsed) {
    // Live tailing: the fleet daemon reads journals mid-append, so a final
    // line without a trailing newline is a record still being written.  It
    // must never be parsed -- even when its bytes already form a valid
    // record, more bytes may follow -- and it is not skipped corruption.
    const std::string complete =
        "task=0 run=milc v=900 f=2400 cores=6 rep=0 outcome=OK margin=12 "
        "path=logic wdt=0\n"
        "task=1 run=milc v=890 f=2400 cores=6 rep=0 outcome=CRASH "
        "margin=-2 path=logic wdt=1\n";
    const std::string in_flight =
        "task=2 run=milc v=880 f=2400 cores=6 rep=0 outcome=OK margin=2 "
        "path=logic wdt=0";

    {
        std::istringstream in(complete + in_flight);
        const cpu_journal_replay replay = replay_cpu_journal(in);
        EXPECT_EQ(replay.completed.size(), 2u);
        EXPECT_EQ(replay.skipped, 0u);
        EXPECT_TRUE(replay.truncated_tail);
        EXPECT_FALSE(replay.completed.contains(2));
    }
    {
        // The writer finishes the line: re-reading recovers the record and
        // the tail indicator clears.
        std::istringstream in(complete + in_flight + "\n");
        const cpu_journal_replay replay = replay_cpu_journal(in);
        EXPECT_EQ(replay.completed.size(), 3u);
        EXPECT_EQ(replay.skipped, 0u);
        EXPECT_FALSE(replay.truncated_tail);
    }
    {
        // A file ending exactly at a newline has no in-flight tail.
        std::istringstream in(complete);
        const cpu_journal_replay replay = replay_cpu_journal(in);
        EXPECT_FALSE(replay.truncated_tail);
    }
}

TEST(journal_test, file_backed_journal_survives_reopening) {
    const std::string path =
        ::testing::TempDir() + "gb_journal_test.journal";
    std::remove(path.c_str());
    {
        campaign_journal journal(path);
        journal.append(0, "run=milc v=900 f=2400 cores=6 rep=0 outcome=OK "
                          "margin=12 path=logic wdt=0");
    }
    {
        // Reopen in append mode, as a resumed campaign does.
        campaign_journal journal(path);
        journal.append(1, "run=milc v=890 f=2400 cores=6 rep=0 "
                          "outcome=CRASH margin=-2 path=logic wdt=1");
    }
    std::ifstream in(path);
    const cpu_journal_replay replay = replay_cpu_journal(in);
    EXPECT_EQ(replay.completed.size(), 2u);
    EXPECT_EQ(replay.skipped, 0u);
    ASSERT_TRUE(replay.completed.contains(1));
    EXPECT_EQ(replay.completed.at(1).outcome, run_outcome::crash);
    std::remove(path.c_str());
}

} // namespace
} // namespace gb
