#include "harness/logfile.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "harness/framework.hpp"
#include "harness/journal.hpp"
#include "record_mutations.hpp"
#include "util/rng.hpp"
#include "workloads/cpu_profiles.hpp"

namespace gb {
namespace {

run_record sample_record() {
    run_record record;
    record.benchmark = "milc";
    record.voltage = millivolts{905.0};
    record.frequency = megahertz{2400.0};
    record.cores = {0, 1, 6};
    record.repetition = 4;
    record.outcome = run_outcome::silent_data_corruption;
    record.margin = millivolts{-3.5};
    record.path = failure_path::sram;
    record.watchdog_reset = false;
    return record;
}

TEST(logfile_test, roundtrip_preserves_every_field) {
    const run_record original = sample_record();
    run_record parsed;
    ASSERT_TRUE(parse_log_line(to_log_line(original), parsed));
    EXPECT_EQ(parsed.benchmark, original.benchmark);
    EXPECT_DOUBLE_EQ(parsed.voltage.value, original.voltage.value);
    EXPECT_DOUBLE_EQ(parsed.frequency.value, original.frequency.value);
    EXPECT_EQ(parsed.cores, original.cores);
    EXPECT_EQ(parsed.repetition, original.repetition);
    EXPECT_EQ(parsed.outcome, original.outcome);
    EXPECT_DOUBLE_EQ(parsed.margin.value, original.margin.value);
    EXPECT_EQ(parsed.path, original.path);
    EXPECT_EQ(parsed.watchdog_reset, original.watchdog_reset);
}

class outcome_roundtrip_test : public ::testing::TestWithParam<run_outcome> {
};

TEST_P(outcome_roundtrip_test, every_outcome_survives) {
    run_record record = sample_record();
    record.outcome = GetParam();
    record.watchdog_reset = GetParam() == run_outcome::crash;
    run_record parsed;
    ASSERT_TRUE(parse_log_line(to_log_line(record), parsed));
    EXPECT_EQ(parsed.outcome, record.outcome);
    EXPECT_EQ(parsed.watchdog_reset, record.watchdog_reset);
}

INSTANTIATE_TEST_SUITE_P(
    outcomes, outcome_roundtrip_test,
    ::testing::Values(run_outcome::ok, run_outcome::corrected_error,
                      run_outcome::uncorrectable_error,
                      run_outcome::silent_data_corruption,
                      run_outcome::crash, run_outcome::hang));

TEST(logfile_test, rejects_noise_and_corruption) {
    run_record record;
    // Boot noise and junk must be skipped, not crash the parser.
    EXPECT_FALSE(parse_log_line("", record));
    EXPECT_FALSE(parse_log_line("[    0.000000] Booting Linux", record));
    EXPECT_FALSE(parse_log_line("run=", record));
    EXPECT_FALSE(parse_log_line("run=milc v=abc outcome=OK", record));
    EXPECT_FALSE(parse_log_line("run=milc v=900", record)); // no outcome
    EXPECT_FALSE(parse_log_line("run=milc v=900 outcome=EXPLODED", record));
    EXPECT_FALSE(
        parse_log_line("run=milc v=900 outcome=OK banana=1", record));
    // Truncated mid-field (the crash case).
    const std::string full = to_log_line(sample_record());
    EXPECT_FALSE(parse_log_line(
        std::string_view(full).substr(0, full.size() / 2), record));
}

TEST(logfile_test, raw_log_roundtrip_with_boot_noise) {
    chip_model ttt(make_ttt_chip(), make_xgene2_pdn());
    characterization_framework framework(ttt, 55);
    campaign_spec spec;
    spec.benchmark = "namd";
    spec.repetitions = 4;
    for (const double v : {980.0, 880.0, 840.0}) {
        characterization_setup setup;
        setup.voltage = millivolts{v};
        setup.cores = {6};
        spec.setups.push_back(setup);
    }
    const campaign_result result =
        framework.run_campaign(spec, find_cpu_benchmark("namd").loop);

    // The journal the resume path replays: boot banner, records, a
    // mid-stream reset banner, and a truncated final record (the board
    // died mid-write; the newline came from the next boot).
    std::ostringstream wire;
    wire << "U-Boot 2016.01 (X-Gene2)\n";
    for (std::size_t i = 0; i < result.records.size(); ++i) {
        wire << "task=" << i << ' ' << to_log_line(result.records[i])
             << '\n';
    }
    wire << "[watchdog] system reset\n";
    wire << "task=0 " << to_log_line(result.records.front()).substr(0, 10)
         << '\n';

    std::istringstream in(wire.str());
    const journal_replay replay = replay_journal(in);
    ASSERT_EQ(replay.cpu.size(), result.records.size());
    EXPECT_EQ(replay.skipped, 3u);
    EXPECT_FALSE(replay.truncated_tail);
    std::vector<run_record> recovered;
    for (const auto& [index, record] : replay.cpu) {
        recovered.push_back(record);
    }
    for (std::size_t i = 0; i < recovered.size(); ++i) {
        EXPECT_EQ(to_log_line(recovered[i]), to_log_line(result.records[i]));
    }

    // The recovered records drive the same parsing phase.
    campaign_result reparsed;
    reparsed.records = recovered;
    EXPECT_EQ(reparsed.summarize().total(), result.summarize().total());
    EXPECT_EQ(reparsed.summarize().crash, result.summarize().crash);
}

TEST(logfile_test, negative_margins_roundtrip) {
    run_record record = sample_record();
    record.margin = millivolts{-27.25};
    run_record parsed;
    ASSERT_TRUE(parse_log_line(to_log_line(record), parsed));
    EXPECT_DOUBLE_EQ(parsed.margin.value, -27.25);
}

TEST(logfile_test, doubles_roundtrip_exactly) {
    // The journal-resume contract needs exact round-trips, not 6-digit
    // approximations: awkward values must survive the wire bit for bit.
    for (const double value :
         {-27.25, 1.0 / 3.0, 905.0000001, -0.0, 1e-17, 123456.789012345}) {
        run_record record = sample_record();
        record.margin = millivolts{value};
        run_record parsed;
        ASSERT_TRUE(parse_log_line(to_log_line(record), parsed));
        EXPECT_EQ(parsed.margin.value, value);
    }
}

// --- Adversarial-input properties: the line parsers must never crash
// --- and must never resurrect a truncated line as a (wrong) record.

TEST(logfile_property_test, cpu_line_truncated_at_every_offset) {
    for (const run_outcome outcome :
         {run_outcome::ok, run_outcome::corrected_error,
          run_outcome::silent_data_corruption, run_outcome::crash,
          run_outcome::hang, run_outcome::aborted_rig}) {
        run_record record = sample_record();
        record.outcome = outcome;
        record.watchdog_reset = outcome == run_outcome::crash;
        const std::string line = to_log_line(record);
        for (std::size_t cut = 0; cut < line.size(); ++cut) {
            run_record parsed;
            EXPECT_FALSE(parse_log_line(
                std::string_view(line).substr(0, cut), parsed))
                << "prefix of length " << cut << " parsed: "
                << line.substr(0, cut);
        }
        run_record parsed;
        EXPECT_TRUE(parse_log_line(line, parsed));
    }
}

TEST(logfile_property_test, dram_line_truncated_at_every_offset) {
    dram_run_record record;
    record.temperature = celsius{60.0};
    record.refresh_period = milliseconds{2283.0};
    record.repetition = 3;
    record.scan.failed_cells = 17;
    record.scan.ce_words = 15;
    record.scan.ue_words = 1;
    record.scan.per_bank_failures = {1, 2, 3, 4, 5, 0, 1, 1};
    record.regulation_deviation_c = 0.62;
    for (const dram_run_outcome outcome :
         {dram_run_outcome::clean, dram_run_outcome::contained,
          dram_run_outcome::uncorrectable, dram_run_outcome::aborted_rig}) {
        for (const data_pattern pattern : all_data_patterns()) {
            record.outcome = outcome;
            record.pattern = pattern;
            const std::string line = to_log_line(record);
            for (std::size_t cut = 0; cut < line.size(); ++cut) {
                dram_run_record parsed;
                EXPECT_FALSE(parse_log_line(
                    std::string_view(line).substr(0, cut), parsed))
                    << "prefix of length " << cut << " parsed: "
                    << line.substr(0, cut);
            }
            dram_run_record parsed;
            ASSERT_TRUE(parse_log_line(line, parsed));
            EXPECT_EQ(parsed.outcome, outcome);
            EXPECT_EQ(parsed.pattern, pattern);
            EXPECT_EQ(parsed.scan.per_bank_failures,
                      record.scan.per_bank_failures);
        }
    }
}

dram_run_record sample_dram_record() {
    dram_run_record record;
    record.pattern = data_pattern::random_data;
    record.temperature = celsius{60.0};
    record.refresh_period = milliseconds{2283.0};
    record.repetition = 3;
    record.scan.failed_cells = 17;
    record.scan.affected_words = 16;
    record.scan.ce_words = 15;
    record.scan.ue_words = 1;
    record.scan.scanned_bits = 4096;
    record.scan.per_bank_failures = {1, 2, 3, 4, 5, 0, 1, 1};
    record.regulation_deviation_c = 0.62;
    record.outcome = dram_run_outcome::uncorrectable;
    return record;
}

TEST(logfile_test, writer_lines_are_the_only_lines_that_parse) {
    // The strictness corpus of both campaign record types: from each
    // writer line, every line with a field dropped, duplicated, swapped
    // or unknown, or a value spelt another way ("900.0", "0900").
    run_record crash = sample_record();
    crash.voltage = millivolts{900.0};
    crash.cores = {6};
    crash.outcome = run_outcome::crash;
    crash.path = failure_path::logic;
    crash.watchdog_reset = true;
    for (const run_record& record : {sample_record(), crash}) {
        const std::string line = to_log_line(record);
        run_record parsed;
        ASSERT_TRUE(parse_log_line(line, parsed)) << line;
        EXPECT_EQ(to_log_line(parsed), line);
        const std::vector<test::record_mutation> corpus =
            test::record_mutations(line);
        EXPECT_GE(corpus.size(), 40U);
        for (const test::record_mutation& mutation : corpus) {
            EXPECT_FALSE(parse_log_line(mutation.line, parsed))
                << mutation.what << ": " << mutation.line;
        }
    }
    const std::string line = to_log_line(sample_dram_record());
    dram_run_record parsed;
    ASSERT_TRUE(parse_log_line(line, parsed)) << line;
    EXPECT_EQ(to_log_line(parsed), line);
    for (const test::record_mutation& mutation :
         test::record_mutations(line)) {
        EXPECT_FALSE(parse_log_line(mutation.line, parsed))
            << mutation.what << ": " << mutation.line;
    }
}

TEST(logfile_test, lines_the_writer_never_writes_are_rejected) {
    // Lines an earlier, field-by-field parser restored as (wrong)
    // records: f=0 and no cores, cores 6+7, v=100, and v=900.
    const std::string full = "run=milc v=900 f=2400 cores=6 rep=0 "
                             "outcome=OK margin=12 path=logic wdt=0";
    run_record record;
    ASSERT_TRUE(parse_log_line(full, record));
    for (const char* line :
         {"run=milc v=900 outcome=OK wdt=0",
          "run=milc v=900 f=2400 cores=6 cores=7 rep=0 outcome=OK "
          "margin=12 path=logic wdt=0",
          "run=milc v=900 v=100 f=2400 cores=6 rep=0 outcome=OK margin=12 "
          "path=logic wdt=0",
          "run=milc v=900.0 f=2400 cores=6 rep=0 outcome=OK margin=12 "
          "path=logic wdt=0",
          "run=milc v=900 f=2400 cores=6 rep=0 outcome=OK margin=12 "
          "path=logic wdt=2"}) {
        EXPECT_FALSE(parse_log_line(line, record)) << line;
    }
    dram_run_record dram;
    std::string dram_line = to_log_line(sample_dram_record());
    dram_line.replace(dram_line.find(" t=60 "), 6, " t=60.0 ");
    EXPECT_FALSE(parse_log_line(dram_line, dram)) << dram_line;

    // The journal's task serial is spelt the writer's one way too.
    std::size_t task_index = 0;
    std::string_view payload;
    const std::string framed = "task=7 " + full;
    ASSERT_TRUE(parse_journal_prefix(framed, task_index, payload));
    EXPECT_EQ(task_index, 7U);
    EXPECT_EQ(payload, full);
    for (const std::string prefix :
         {"task=07 ", "task=+7 ", "task=7.0 ", "task= ", "Task=7 "}) {
        EXPECT_FALSE(parse_journal_prefix(prefix + full, task_index, payload))
            << prefix;
    }
}

TEST(logfile_property_test, random_byte_flips_never_crash_the_parser) {
    // Log lines randomly shot at: parse_log_line must survive
    // arbitrary garbage, and every untouched line's record must come back
    // intact, in order.
    std::vector<run_record> originals;
    for (int i = 0; i < 40; ++i) {
        run_record record = sample_record();
        record.repetition = i;
        record.voltage = millivolts{980.0 - i};
        record.margin = millivolts{i * 0.37 - 5.0};
        originals.push_back(record);
    }

    rng noise(20180406);
    std::vector<std::string> untouched;
    std::ostringstream wire;
    for (const run_record& record : originals) {
        std::string line = to_log_line(record);
        if (noise.bernoulli(0.5)) {
            const int flips = 1 + static_cast<int>(noise.uniform_index(3));
            for (int f = 0; f < flips; ++f) {
                const std::size_t at = noise.uniform_index(line.size());
                line[at] = static_cast<char>(
                    line[at] ^
                    static_cast<char>(1 + noise.uniform_index(255)));
            }
        } else {
            untouched.push_back(line);
        }
        wire << line << '\n';
    }

    std::istringstream in(wire.str());
    std::vector<run_record> recovered;
    for (std::string line; std::getline(in, line);) {
        run_record record;
        if (parse_log_line(line, record)) {
            // A line that still parses is one the writer writes: its
            // record renders back to exactly its bytes.
            EXPECT_EQ(to_log_line(record), line);
            recovered.push_back(std::move(record));
        }
    }

    // Every untouched line is recovered, in order (flipped lines may or
    // may not survive -- either way they must not take the parser down).
    std::size_t next = 0;
    for (const run_record& record : recovered) {
        if (next < untouched.size() &&
            to_log_line(record) == untouched[next]) {
            ++next;
        }
    }
    EXPECT_EQ(next, untouched.size());
}

TEST(logfile_test, dram_raw_log_roundtrip_with_noise) {
    dram_run_record record;
    record.pattern = data_pattern::checkerboard;
    record.temperature = celsius{55.0};
    record.refresh_period = milliseconds{512.0};
    record.outcome = dram_run_outcome::contained;
    record.scan.failed_cells = 3;
    record.scan.ce_words = 3;

    std::ostringstream wire;
    wire << "SPD init: 1 DIMM\n";
    wire << to_log_line(record) << '\n';
    wire << to_log_line(record).substr(0, 12) << '\n';

    std::istringstream in(wire.str());
    std::vector<dram_run_record> recovered;
    std::size_t skipped = 0;
    for (std::string line; std::getline(in, line);) {
        dram_run_record parsed;
        if (parse_log_line(line, parsed)) {
            recovered.push_back(std::move(parsed));
        } else {
            ++skipped;
        }
    }
    ASSERT_EQ(recovered.size(), 1u);
    EXPECT_EQ(skipped, 2u);
    EXPECT_EQ(recovered[0].outcome, dram_run_outcome::contained);
    EXPECT_DOUBLE_EQ(recovered[0].refresh_period.value, 512.0);
}

} // namespace
} // namespace gb
