// The crash-safe journal and the resume contract: kill a CPU campaign
// after K of N journal lines, resume from the truncated journal, and the
// records and CSV are bitwise identical to the uninterrupted run -- at 1
// and 8 workers, even when the fault plan was garbling journal lines.  A
// DRAM campaign's journal reads back through gbreport's loader, and every
// reader of the shared line framing classifies a journal cut at any byte
// offset the same way.
#include "harness/journal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "fleet/service.hpp"
#include "harness/fault_injection.hpp"
#include "harness/framework.hpp"
#include "harness/integrity/integrity.hpp"
#include "harness/logfile.hpp"
#include "harness/report/artifacts.hpp"
#include "util/wire.hpp"
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
    const journal_replay replay = replay_journal(in);
    EXPECT_EQ(replay.cpu.size(), result.records.size());
    EXPECT_EQ(replay.skipped, 2u);
    for (const auto& [index, record] : replay.cpu) {
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
    const journal_replay replay = replay_journal(combined);
    EXPECT_EQ(replay.cpu.size(), total);
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
        campaign_io io;
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
    EXPECT_TRUE(artifact->cpu.empty());
    ASSERT_EQ(artifact->dram.size(), result.records.size());
    for (const auto& [index, record] : artifact->dram) {
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
        const journal_replay replay = replay_journal(in);
        EXPECT_EQ(replay.cpu.size(), 2u);
        EXPECT_EQ(replay.skipped, 0u);
        EXPECT_TRUE(replay.truncated_tail);
        EXPECT_FALSE(replay.cpu.contains(2));
    }
    {
        // The writer finishes the line: re-reading recovers the record and
        // the tail indicator clears.
        std::istringstream in(complete + in_flight + "\n");
        const journal_replay replay = replay_journal(in);
        EXPECT_EQ(replay.cpu.size(), 3u);
        EXPECT_EQ(replay.skipped, 0u);
        EXPECT_FALSE(replay.truncated_tail);
    }
    {
        // A file ending exactly at a newline has no in-flight tail.
        std::istringstream in(complete);
        const journal_replay replay = replay_journal(in);
        EXPECT_FALSE(replay.truncated_tail);
    }
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void write_raw(const std::string& path, std::string_view bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

TEST(journal_test, every_cut_offset_is_classified_once) {
    // A CPU+DRAM task journal as the writer frames it, cut at every byte
    // offset (the seed corpus of a journal fuzzer).  A cut at a line end
    // is a complete journal; any other cut leaves a torn tail, which both
    // the replay and gbreport's loader report -- never parse -- while
    // restoring exactly the complete lines before it.
    const std::vector<std::string> cpu_lines = {
        "run=milc v=900 f=2400 cores=6 rep=0 outcome=OK margin=12 "
        "path=logic wdt=0",
        "run=milc v=890 f=2400 cores=6 rep=0 outcome=CRASH margin=-2 "
        "path=logic wdt=1",
        "run=milc v=880 f=2400 cores=6 rep=1 outcome=OK margin=2 "
        "path=logic wdt=0"};
    dram_run_record dram;
    dram.temperature = celsius{60.0};
    dram.refresh_period = milliseconds{2283.0};
    dram.scan.failed_cells = 17;
    dram.scan.ce_words = 15;
    dram.scan.ue_words = 1;
    dram.scan.per_bank_failures = {1, 2, 3, 4, 5, 0, 1, 1};
    dram.outcome = dram_run_outcome::uncorrectable;
    const std::string dram_line = to_log_line(dram);

    // Task order: cpu, dram, cpu, dram, cpu.
    std::ostringstream sink;
    campaign_journal journal(sink);
    std::vector<std::string> payloads;
    for (std::size_t task = 0; task < 5; ++task) {
        payloads.push_back(task % 2 == 0 ? cpu_lines[task / 2] : dram_line);
        journal.append(task, payloads.back());
    }
    const std::string text = sink.str();
    const std::string path =
        ::testing::TempDir() + "gb_journal_test_cuts.journal";

    for (std::size_t cut = 0; cut <= text.size(); ++cut) {
        SCOPED_TRACE("cut=" + std::to_string(cut));
        const std::string_view prefix = std::string_view(text).substr(0, cut);
        const auto complete = static_cast<std::size_t>(
            std::count(prefix.begin(), prefix.end(), '\n'));
        const bool torn = cut > 0 && prefix.back() != '\n';

        std::istringstream in{std::string(prefix)};
        const journal_replay replay = replay_journal(in);
        EXPECT_EQ(replay.truncated_tail, torn);
        EXPECT_EQ(replay.lines, complete);
        EXPECT_EQ(replay.skipped, 0u);
        ASSERT_EQ(replay.records(), complete);
        for (std::size_t task = 0; task < complete; ++task) {
            const std::string got =
                task % 2 == 0 ? to_log_line(replay.cpu.at(task))
                              : to_log_line(replay.dram.at(task));
            EXPECT_EQ(got, payloads[task]);
        }
        // The torn tail is never restored; whatever of it still parses
        // renders back to exactly its bytes (reject or round-trip).
        const std::string_view tail = prefix.substr(prefix.rfind('\n') + 1);
        std::size_t task_index = 0;
        std::string_view payload;
        if (parse_journal_prefix(tail, task_index, payload)) {
            EXPECT_EQ("task=" + std::to_string(task_index) + " " +
                          std::string(payload),
                      tail);
            run_record cpu;
            if (parse_log_line(payload, cpu)) {
                EXPECT_EQ(to_log_line(cpu), payload);
            }
            dram_run_record dram_record;
            if (parse_log_line(payload, dram_record)) {
                EXPECT_EQ(to_log_line(dram_record), payload);
            }
        }

        write_raw(path, prefix);
        std::string error;
        const std::optional<report::journal_artifact> artifact =
            report::load_journal_file(path, error);
        if (complete == 0) {
            EXPECT_FALSE(artifact.has_value());
            EXPECT_NE(error.find(torn ? "truncated tail" : "empty"),
                      std::string::npos)
                << error;
            continue;
        }
        ASSERT_TRUE(artifact.has_value()) << error;
        EXPECT_EQ(artifact->truncated_tail, torn);
        EXPECT_EQ(artifact->lines, complete);
        EXPECT_EQ(artifact->skipped, 0u);
        EXPECT_EQ(artifact->cpu.size(), replay.cpu.size());
        EXPECT_EQ(artifact->dram.size(), replay.dram.size());
    }
    std::remove(path.c_str());
}

TEST(journal_test, every_cut_of_a_fleet_journal_heals_on_warm) {
    // A 4-record chained fleet journal cut at every byte offset: the
    // strict warm path restores exactly the complete probe records and
    // heals (truncates, on disk) exactly the bytes after the last '\n'.
    fleet::fleet_spec spec;
    for (std::uint16_t op = 0; op < 4; ++op) {
        fleet::fleet_node node;
        node.id = op;
        node.cohort.operating_point = op;
        node.seed = 100 + op;
        spec.explicit_nodes.push_back(node);
    }
    const auto probe = [](const fleet::probe_request& request) {
        fleet::probe_result result;
        result.requirement_mv =
            850.0 + static_cast<double>(request.content % 97);
        result.power_nominal_w = 30.0;
        result.power_point_w = 24.0;
        return result;
    };
    const std::string path =
        ::testing::TempDir() + "gb_journal_test_fleet_cuts.journal";
    std::remove(path.c_str());
    fleet::fleet_service_config config;
    config.journal_path = path;
    {
        fleet::fleet_service service(spec, config, probe);
        (void)service.run_campaign(0);
    }
    const std::string text = slurp(path);
    ASSERT_EQ(std::count(text.begin(), text.end(), '\n'), 4);

    for (std::size_t cut = 0; cut <= text.size(); ++cut) {
        SCOPED_TRACE("cut=" + std::to_string(cut));
        const std::string_view prefix = std::string_view(text).substr(0, cut);
        const std::size_t kept = prefix.rfind('\n') + 1; // npos + 1 == 0
        write_raw(path, prefix);
        const fleet::fleet_service warmed(spec, config, probe);
        EXPECT_EQ(warmed.restored(), static_cast<std::uint64_t>(std::count(
                                         prefix.begin(), prefix.end(), '\n')));
        EXPECT_EQ(warmed.healed_bytes(), cut - kept);
        EXPECT_EQ(slurp(path), prefix.substr(0, kept));

        // Whatever of the torn tail still parses renders back, over the
        // last complete record's link, to exactly its bytes.
        std::uint64_t chain = chain_basis;
        if (kept > 0) {
            const std::string_view last = prefix.substr(0, kept - 1);
            const std::string_view link =
                last.substr(last.rfind(" chain=") + 7);
            ASSERT_TRUE(parse_int(link, chain, 16)) << link;
        }
        std::size_t task_index = 0;
        std::string_view payload;
        fleet::probe_record record;
        if (parse_journal_prefix(prefix.substr(kept), task_index, payload) &&
            fleet::parse_probe_line(payload, record)) {
            EXPECT_EQ(fleet::chained_probe_payload(record, chain), payload);
        }
    }
    std::remove(path.c_str());
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
    const journal_replay replay = replay_journal(in);
    EXPECT_EQ(replay.cpu.size(), 2u);
    EXPECT_EQ(replay.skipped, 0u);
    ASSERT_TRUE(replay.cpu.contains(1));
    EXPECT_EQ(replay.cpu.at(1).outcome, run_outcome::crash);
    std::remove(path.c_str());
}

} // namespace
} // namespace gb
