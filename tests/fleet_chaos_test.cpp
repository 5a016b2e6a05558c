// Chaos-harness acceptance tests: the robustness PR's core criteria.
//
// A chaos plan's kill-points are deterministic and one-shot; every armed
// crash at a persistence seam (torn journal append, torn snapshot temp,
// missing rename, killed cache warm) must recover to *bitwise* the same
// journal and snapshot an unfaulted run produces -- verified across a
// kill-point x workers matrix through run_recovery_check.  The
// journal warm path self-heals exactly one kind of damage (the torn tail
// this writer's own crash can cause) and rejects everything else with a
// diagnostic.  Rig faults degrade cohorts instead of failing campaigns:
// quarantine is deterministic, worker-invariant, visible in the
// snapshot's "degraded" section, and the per-probe fault ledger makes the
// fault accounting itself converge across a crash/restart.
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/fleet.hpp"
#include "fleet/recovery.hpp"
#include "fleet/service.hpp"
#include "harness/chaos/chaos.hpp"
#include "harness/fault_injection.hpp"
#include "harness/integrity/integrity.hpp"
#include "harness/journal.hpp"
#include "harness/report/artifacts.hpp"
#include "harness/timeseries/alerts.hpp"
#include "harness/timeseries/timeseries.hpp"
#include "util/wire.hpp"

namespace gb::fleet {
namespace {

std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void write_raw(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

std::vector<std::string> split_lines(const std::string& bytes) {
    std::vector<std::string> lines;
    std::istringstream in(bytes);
    std::string line;
    while (std::getline(in, line)) {
        lines.push_back(line);
    }
    return lines;
}

probe_result fake_probe(const probe_request& request) {
    probe_result result;
    result.requirement_mv = 850.0 +
                            static_cast<double>(request.content % 97) +
                            static_cast<double>(request.sweep_mv) / 2.0;
    result.power_nominal_w = 30.0 + static_cast<double>(request.seed % 13);
    result.power_point_w = result.power_nominal_w * 0.8;
    result.bucket = static_cast<int>(request.cohort.corner);
    return result;
}

// 10^4 nodes keeps the per-life census cheap while preserving the full
// 36-cohort (3 corners x 3 classes x 4 points) probe schedule.
fleet_spec small_fleet() {
    fleet_spec spec;
    spec.nodes = 10000;
    return spec;
}

// --- chaos plan mechanics -----------------------------------------------

TEST(ChaosPlanTest, SiteNamesRoundTrip) {
    for (const chaos_site site :
         {chaos_site::journal_append, chaos_site::snapshot_temp,
          chaos_site::snapshot_rename, chaos_site::control_command,
          chaos_site::cache_warm, chaos_site::timeline_append}) {
        chaos_site parsed;
        ASSERT_TRUE(chaos_site_from_string(to_string(site), parsed));
        EXPECT_EQ(parsed, site);
    }
    chaos_site parsed;
    EXPECT_FALSE(chaos_site_from_string("power_cut", parsed));
}

TEST(ChaosPlanTest, JournalTriggerFiresOnceAtTheByteThreshold) {
    chaos_plan_config config;
    config.seed = 7;
    config.triggers.push_back({chaos_site::journal_append, 100});
    chaos_plan plan(config);
    EXPECT_FALSE(plan.on_journal_append(0, 50).has_value());
    EXPECT_FALSE(plan.on_journal_append(50, 49).has_value()); // reaches 99
    const auto tear = plan.on_journal_append(99, 10);
    ASSERT_TRUE(tear.has_value());
    EXPECT_EQ(tear->site, chaos_site::journal_append);
    EXPECT_LT(tear->keep, 10U); // strictly partial: the newline never lands
    EXPECT_EQ(plan.fired(), 1U);
    // One-shot: the same append never fires twice.
    EXPECT_FALSE(plan.on_journal_append(99, 10).has_value());

    // Determinism: an identical plan derives the identical torn length.
    chaos_plan replay(config);
    const auto again = replay.on_journal_append(99, 10);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->keep, tear->keep);
}

TEST(ChaosPlanTest, ExplicitKeepIsHonoredAndClamped) {
    chaos_plan_config config;
    config.triggers.push_back({chaos_site::journal_append, 1, 3});
    config.triggers.push_back({chaos_site::snapshot_temp, 1, 500});
    chaos_plan plan(config);
    const auto tear = plan.on_journal_append(0, 10);
    ASSERT_TRUE(tear.has_value());
    EXPECT_EQ(tear->keep, 3U);
    // keep >= payload clamps to size - 1: the write stays strictly torn.
    const auto temp = plan.on_snapshot_temp(40);
    ASSERT_TRUE(temp.has_value());
    EXPECT_EQ(temp->keep, 39U);
}

TEST(ChaosPlanTest, HitCountedSeamsFireOnTheirNthHit) {
    chaos_plan_config config;
    config.triggers.push_back({chaos_site::snapshot_rename, 2});
    config.triggers.push_back({chaos_site::control_command, 1});
    config.triggers.push_back({chaos_site::cache_warm, 3});
    chaos_plan plan(config);
    EXPECT_FALSE(plan.on_snapshot_rename());
    EXPECT_TRUE(plan.on_snapshot_rename());
    EXPECT_FALSE(plan.on_snapshot_rename()); // one-shot
    EXPECT_TRUE(plan.on_control_command());
    EXPECT_FALSE(plan.on_control_command());
    EXPECT_FALSE(plan.on_cache_warm_line());
    EXPECT_FALSE(plan.on_cache_warm_line());
    EXPECT_TRUE(plan.on_cache_warm_line());
    EXPECT_EQ(plan.fired(), 3U);
}

TEST(ChaosPlanTest, TimelineAppendTearsOnItsNthRecord) {
    chaos_plan_config config;
    config.seed = 3;
    config.triggers.push_back({chaos_site::timeline_append, 2, 7});
    chaos_plan plan(config);
    EXPECT_FALSE(plan.on_timeline_append(64).has_value());
    const auto tear = plan.on_timeline_append(64);
    ASSERT_TRUE(tear.has_value());
    EXPECT_EQ(tear->site, chaos_site::timeline_append);
    EXPECT_EQ(tear->keep, 7U);
    EXPECT_FALSE(plan.on_timeline_append(64).has_value()); // one-shot

    // keep_auto derives a strictly-partial length, deterministically.
    chaos_plan_config autoconf;
    autoconf.seed = 3;
    autoconf.triggers.push_back({chaos_site::timeline_append, 1});
    chaos_plan first(autoconf);
    chaos_plan second(autoconf);
    const auto a = first.on_timeline_append(120);
    const auto b = second.on_timeline_append(120);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->keep, b->keep);
    EXPECT_LT(a->keep, 120U);
}

TEST(ChaosPlanTest, ThrowModeRaisesChaosCrashWithTheSite) {
    chaos_plan plan(chaos_plan_config{});
    try {
        plan.kill(chaos_site::snapshot_rename);
        FAIL() << "kill returned";
    } catch (const chaos_crash& crash) {
        EXPECT_EQ(crash.site(), chaos_site::snapshot_rename);
        EXPECT_NE(std::string(crash.what()).find("snapshot_rename"),
                  std::string::npos);
    }
}

TEST(ChaosPlanTest, SpecParserAcceptsTriggersAndRejectsGarbage) {
    chaos_plan_config config;
    std::string error;
    ASSERT_TRUE(parse_chaos_spec(
        "journal_append@6000,snapshot_rename@2,snapshot_temp@1/40", config,
        error))
        << error;
    ASSERT_EQ(config.triggers.size(), 3U);
    EXPECT_EQ(config.triggers[0].site, chaos_site::journal_append);
    EXPECT_EQ(config.triggers[0].at, 6000U);
    EXPECT_EQ(config.triggers[0].keep, chaos_trigger::keep_auto);
    EXPECT_EQ(config.triggers[1].site, chaos_site::snapshot_rename);
    EXPECT_EQ(config.triggers[2].keep, 40U);

    // A trailing comma is tolerated (an empty final token ends the spec).
    chaos_plan_config trailing;
    EXPECT_TRUE(parse_chaos_spec("journal_append@5,", trailing, error));
    EXPECT_EQ(trailing.triggers.size(), 1U);

    for (const std::string_view bad :
         {"power_cut@1", "journal_append", "journal_append@",
          "journal_append@zero", "journal_append@0", "@5",
          "journal_append@5,,snapshot_rename@1", "journal_append@5/x"}) {
        chaos_plan_config scratch;
        std::string why;
        EXPECT_FALSE(parse_chaos_spec(bad, scratch, why)) << bad;
        EXPECT_FALSE(why.empty()) << bad;
    }
}

TEST(ChaosPlanTest, ReplanBackoffDoublesFromTheBase) {
    EXPECT_DOUBLE_EQ(replan_backoff_s(5.0, 1), 5.0);
    EXPECT_DOUBLE_EQ(replan_backoff_s(5.0, 2), 10.0);
    EXPECT_DOUBLE_EQ(replan_backoff_s(5.0, 3), 20.0);
    EXPECT_DOUBLE_EQ(replan_backoff_s(2.5, 4), 20.0);
    EXPECT_DOUBLE_EQ(replan_backoff_s(0.0, 3), 0.0);
}

// --- torn writes and self-healing ---------------------------------------

TEST(FleetChaosTest, TornJournalAppendHealsOnRestart) {
    const std::string journal_path = temp_path("chaos_torn.journal");
    std::remove(journal_path.c_str());

    chaos_plan_config chaos_config;
    // First append, explicit 40-byte tear: the line's tail (and its
    // newline) never reach disk.
    chaos_config.triggers.push_back({chaos_site::journal_append, 1, 40});
    chaos_plan chaos(chaos_config);
    {
        fleet_service_config config;
        config.journal_path = journal_path;
        config.chaos = &chaos;
        fleet_service service(small_fleet(), config, fake_probe);
        EXPECT_THROW((void)service.run_campaign(0), chaos_crash);
    }
    const std::string torn = slurp(journal_path);
    ASSERT_EQ(torn.size(), 40U);
    EXPECT_EQ(torn.find('\n'), std::string::npos);

    // The restarted service truncates the torn tail, restores nothing
    // (no intact line survived) and re-executes the whole campaign.
    fleet_service_config config;
    config.journal_path = journal_path;
    fleet_service healed(small_fleet(), config, fake_probe);
    EXPECT_EQ(healed.healed_bytes(), 40U);
    EXPECT_EQ(healed.restored(), 0U);
    const campaign_outcome outcome = healed.run_campaign(0);
    EXPECT_EQ(outcome.executed, 36U);
    const std::string rewritten = slurp(journal_path);
    EXPECT_EQ(rewritten.back(), '\n');
    EXPECT_EQ(split_lines(rewritten).size(), 36U);
}

TEST(FleetChaosTest, ForeignGarbageTailHealsLikeATornLine) {
    const std::string journal_path = temp_path("chaos_tail.journal");
    std::remove(journal_path.c_str());
    {
        fleet_service_config config;
        config.journal_path = journal_path;
        fleet_service service(small_fleet(), config, fake_probe);
        (void)service.run_campaign(0);
    }
    const std::string intact = slurp(journal_path);
    const std::string tail = "task=36 probe corner=TTT class=";
    write_raw(journal_path, intact + tail);

    fleet_service_config config;
    config.journal_path = journal_path;
    fleet_service healed(small_fleet(), config, fake_probe);
    EXPECT_EQ(healed.healed_bytes(), tail.size());
    EXPECT_EQ(healed.restored(), 36U);
    EXPECT_EQ(slurp(journal_path), intact); // the heal is on disk
}

TEST(FleetChaosTest, LoneNewlineLessLineHealsToAnEmptyJournal) {
    // The whole file is one torn line: the heal truncates it from offset
    // 0, leaving an empty journal and nothing restored.
    const std::string journal_path = temp_path("chaos_lone_tail.journal");
    const std::string torn = "task=0 probe corner=TTT class=0 op=";
    write_raw(journal_path, torn);

    fleet_service_config config;
    config.journal_path = journal_path;
    fleet_service healed(small_fleet(), config, fake_probe);
    EXPECT_EQ(healed.healed_bytes(), torn.size());
    EXPECT_EQ(healed.restored(), 0U);
    EXPECT_EQ(slurp(journal_path), "");
}

TEST(FleetChaosTest, NewlineTerminatedJournalHealsNothing) {
    // A final '\n' closes the last record: no torn tail to heal.
    const std::string journal_path = temp_path("chaos_clean_tail.journal");
    std::remove(journal_path.c_str());
    {
        fleet_service_config config;
        config.journal_path = journal_path;
        fleet_service service(small_fleet(), config, fake_probe);
        (void)service.run_campaign(0);
    }
    const std::string intact = slurp(journal_path);
    ASSERT_EQ(intact.back(), '\n');

    fleet_service_config config;
    config.journal_path = journal_path;
    fleet_service warmed(small_fleet(), config, fake_probe);
    EXPECT_EQ(warmed.healed_bytes(), 0U);
    EXPECT_EQ(warmed.restored(), 36U);
    EXPECT_EQ(slurp(journal_path), intact);
}

TEST(FleetChaosTest, TornTimelineRecordHealsOnRestart) {
    const std::string journal_path = temp_path("chaos_torn_tline.journal");
    std::remove(journal_path.c_str());

    std::string error;
    const auto rules = parse_alert_rules(
        "alert vmin-drift vmin.* slope 1.5 window 3\n", "chaos_rules",
        error);
    ASSERT_TRUE(rules.has_value()) << error;

    // Golden: one observed campaign, no chaos.
    const std::string golden_path = temp_path("chaos_gold_tline.journal");
    std::remove(golden_path.c_str());
    std::string golden_journal;
    std::string golden_timeline;
    {
        timeline_recorder recorder;
        fleet_service_config config;
        config.journal_path = golden_path;
        config.timeline = &recorder;
        config.alerts = *rules;
        fleet_service service(small_fleet(), config, fake_probe);
        (void)service.run_campaign(0);
        golden_journal = slurp(golden_path);
        golden_timeline = service.timeline_snapshot();
    }
    ASSERT_NE(golden_journal.find(" tline "), std::string::npos);
    ASSERT_NE(golden_journal.find(" tseal "), std::string::npos);

    // Chaos life 1: all 36 probes land, then the first observatory record
    // tears at 25 bytes (prefix of `task=36 tline ...`, no newline).
    chaos_plan_config chaos_config;
    chaos_config.triggers.push_back({chaos_site::timeline_append, 1, 25});
    chaos_plan chaos(chaos_config);
    {
        timeline_recorder recorder;
        fleet_service_config config;
        config.journal_path = journal_path;
        config.timeline = &recorder;
        config.alerts = *rules;
        config.chaos = &chaos;
        fleet_service service(small_fleet(), config, fake_probe);
        EXPECT_THROW((void)service.run_campaign(0), chaos_crash);
    }
    const std::string torn = slurp(journal_path);
    const std::size_t cut = torn.rfind('\n');
    ASSERT_NE(cut, std::string::npos);
    EXPECT_EQ(torn.size() - cut - 1, 25U);
    EXPECT_EQ(torn.compare(cut + 1, 8, "task=36 "), 0);

    // Life 2: the warm truncates the torn observatory tail, restores all
    // 36 probes, and re-running the campaign (pure cache hits) replays
    // the whole observatory block -- bitwise the golden bytes.
    timeline_recorder recorder;
    fleet_service_config config;
    config.journal_path = journal_path;
    config.timeline = &recorder;
    config.alerts = *rules;
    fleet_service healed(small_fleet(), config, fake_probe);
    EXPECT_EQ(healed.healed_bytes(), 25U);
    EXPECT_EQ(healed.restored(), 36U);
    const campaign_outcome outcome = healed.run_campaign(0);
    EXPECT_EQ(outcome.executed, 0U);
    EXPECT_EQ(outcome.cache_hits, 36U);
    EXPECT_EQ(slurp(journal_path), golden_journal);
    EXPECT_EQ(healed.timeline_snapshot(), golden_timeline);
}

// --- strict warm-path validation ----------------------------------------

class FleetJournalRejectionTest : public ::testing::Test {
protected:
    void SetUp() override {
        // Unique per test case: ctest discovers gtest cases individually
        // and runs them as parallel processes, so a shared fixture path
        // would race.
        journal_path_ =
            temp_path(std::string("chaos_reject_") +
                      ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name() +
                      ".journal");
        std::remove(journal_path_.c_str());
        fleet_service_config config;
        config.journal_path = journal_path_;
        fleet_service service(small_fleet(), config, fake_probe);
        (void)service.run_campaign(0);
        lines_ = split_lines(slurp(journal_path_));
        ASSERT_GE(lines_.size(), 3U);
    }

    /// Payload of line `i` (everything after the `task=N ` prefix).
    [[nodiscard]] std::string payload(std::size_t i) const {
        std::size_t task_index = 0;
        std::string_view rest;
        EXPECT_TRUE(parse_journal_prefix(lines_[i], task_index, rest));
        return std::string(rest);
    }

    /// Replace `field=<old>` with `field=<value>` in a copied line.
    [[nodiscard]] static std::string with_field(std::string line,
                                               const std::string& field,
                                               const std::string& value) {
        const std::size_t start = line.find(" " + field + "=");
        EXPECT_NE(start, std::string::npos) << field << " in " << line;
        const std::size_t from = start + field.size() + 2;
        std::size_t to = line.find(' ', from);
        if (to == std::string::npos) {
            to = line.size();
        }
        return line.replace(from, to - from, value);
    }

    /// Join `lines` into journal bytes, recomputing every ` chain=` link
    /// in order -- so an edited input fails for the invariant it was
    /// written for, not on its (stale) link.
    [[nodiscard]] static std::string rechain(
        const std::vector<std::string>& lines) {
        std::uint64_t chain = chain_basis;
        std::string bytes;
        for (const std::string& line : lines) {
            const std::size_t body = line.find(' ') + 1;
            const std::size_t link = line.rfind(" chain=");
            chain = chain_next(
                chain, std::string_view(line).substr(body, link - body));
            bytes += line.substr(0, link) + " chain=" + format_hex(chain) +
                     "\n";
        }
        return bytes;
    }

    void expect_reject(const std::string& bytes,
                       const std::string& needle) const {
        write_raw(journal_path_, bytes);
        fleet_service_config config;
        config.journal_path = journal_path_;
        try {
            fleet_service service(small_fleet(), config, fake_probe);
            FAIL() << "journal accepted; wanted rejection: " << needle;
        } catch (const fleet_journal_error& error) {
            EXPECT_NE(std::string(error.what()).find(needle),
                      std::string::npos)
                << error.what();
            EXPECT_NE(std::string(error.what()).find(journal_path_),
                      std::string::npos)
                << "diagnostic names the file: " << error.what();
        }
    }

    std::string journal_path_;
    std::vector<std::string> lines_;
};

TEST_F(FleetJournalRejectionTest, DuplicateEntryIsRejected) {
    // Serial 1, byte-identical payload: the order check would also fire,
    // but duplicates are diagnosed first (the more specific violation).
    std::string second = lines_[0];
    second.replace(0, second.find(' '), "task=1");
    expect_reject(rechain({lines_[0], second}), "duplicate entry");
}

TEST_F(FleetJournalRejectionTest, ContradictoryReExecutionIsRejected) {
    std::string second = lines_[0];
    second.replace(0, second.find(' '), "task=1");
    second = with_field(second, "req", "999.5");
    expect_reject(rechain({lines_[0], second}), "contradictory re-execution");
}

TEST_F(FleetJournalRejectionTest, SerialGapIsRejected) {
    expect_reject(lines_[0] + "\n" + lines_[2] + "\n", "out of sequence");
}

TEST_F(FleetJournalRejectionTest, MidFileGarbageIsRejected) {
    expect_reject(lines_[0] + "\nnoise\n" + lines_[1] + "\n",
                  "not a journal record");
    expect_reject(lines_[0] + "\ntask=1 garbage record\n",
                  "unparseable probe record");
    // Numbers are finite or the record does not parse: a "nan" would bin
    // its cohort at the cap and poison the published snapshot.
    expect_reject(rechain({with_field(lines_[0], "req", "nan")}),
                  ":1: unparseable probe record");
    // Every ledger field is required: a correctly chained record without
    // `down=` does not parse either.
    const std::size_t down = lines_[0].find(" down=");
    const std::size_t rigs = lines_[0].find(" rigs=");
    ASSERT_LT(down, rigs);
    expect_reject(rechain({lines_[0].substr(0, down) + lines_[0].substr(rigs)}),
                  ":1: unparseable probe record");
}

TEST_F(FleetJournalRejectionTest, CohortOrderRegressionIsRejected) {
    // Swap the first two payloads: both parse, contents are distinct, but
    // the sorted-cohort commit order the writer guarantees is violated.
    expect_reject(rechain({"task=0 " + payload(1), "task=1 " + payload(0)}),
                  "cohort order regressed");
}

TEST_F(FleetJournalRejectionTest, ForeignCohortIsRejected) {
    expect_reject(rechain({with_field(lines_[0], "class", "7")}),
                  "outside this fleet");
}

// --- the crash matrix ---------------------------------------------------

struct kill_combo {
    std::string name;
    std::vector<chaos_trigger> triggers;
};

std::vector<kill_combo> crash_matrix_combos() {
    // Byte thresholds assume ~195-byte chained journal lines over a
    // 72-probe schedule (~13.7 KiB): @2000 tears record 11 of the first
    // campaign, leaving enough intact lines behind it for the
    // cache_warm@5 pairing; in the triple kill, @1500 tears record 8 and
    // @6000 lands in the second life's run, early in the second campaign.
    return {
        {"torn-journal", {{chaos_site::journal_append, 2000}}},
        {"torn-snapshot-temp", {{chaos_site::snapshot_temp, 1}}},
        {"missing-rename", {{chaos_site::snapshot_rename, 1}}},
        {"crash-during-warm",
         {{chaos_site::journal_append, 2000}, {chaos_site::cache_warm, 5}}},
        {"triple-kill",
         {{chaos_site::journal_append, 1500},
          {chaos_site::journal_append, 6000},
          {chaos_site::snapshot_rename, 1}}},
    };
}

TEST(FleetChaosTest, CrashMatrixConvergesBitwise) {
    int cell = 0;
    for (const kill_combo& combo : crash_matrix_combos()) {
        for (const int workers : {1, 8}) {
            recovery_check_config config;
            config.spec = small_fleet();
            config.sweeps = {0, -5, 0};
            config.chaos.seed = 1234;
            config.chaos.triggers = combo.triggers;
            config.service.workers = workers;
            config.work_dir =
                temp_path("chaos_matrix_" + std::to_string(cell++));
            config.probe = fake_probe;
            const recovery_report report = run_recovery_check(config);
            EXPECT_TRUE(report.converged())
                << combo.name << " workers=" << workers << ": "
                << report.failure;
            EXPECT_EQ(report.fired, combo.triggers.size()) << combo.name;
            EXPECT_EQ(report.crashes, combo.triggers.size()) << combo.name;
            EXPECT_EQ(report.lives, combo.triggers.size() + 1)
                << combo.name;
        }
    }
}

TEST(FleetChaosTest, ObservatoryCrashMatrixConvergesBitwise) {
    // The observatory under kill-points: timeline samples, alert events
    // and epoch seals all ride the journal, so a crash between any two of
    // them must still converge -- journal, snapshot AND timeline.json --
    // with the never-crashed run.  Four sweeps fill the 3-epoch slope
    // window, and the 2 mV/epoch seeded aging fires the drift rule in
    // both runs, so the alert events themselves are part of the bitwise
    // comparison.
    std::string error;
    const auto rules = parse_alert_rules(
        "alert vmin-drift vmin.* slope 1.5 window 3\n", "chaos_rules",
        error);
    ASSERT_TRUE(rules.has_value()) << error;

    // Each epoch journals ~41 observatory records (36 vmin + 4 fleet
    // samples + the seal) plus alert events from epoch 3 on: @1 tears the
    // very first sample, @50 lands mid epoch 2, @130 inside the alert
    // storm of a later epoch.
    const std::vector<kill_combo> combos = {
        {"first-sample", {{chaos_site::timeline_append, 1}}},
        {"mid-epoch", {{chaos_site::timeline_append, 50}}},
        {"seal-then-rename",
         {{chaos_site::timeline_append, 130},
          {chaos_site::snapshot_rename, 1}}},
        {"probe-and-sample",
         {{chaos_site::journal_append, 2000},
          {chaos_site::timeline_append, 90}}},
    };
    int cell = 0;
    for (const kill_combo& combo : combos) {
        for (const int workers : {1, 8}) {
            recovery_check_config config;
            config.spec = small_fleet();
            config.sweeps = {0, 0, 0, 0};
            config.chaos.seed = 4321;
            config.chaos.triggers = combo.triggers;
            config.service.workers = workers;
            config.work_dir =
                temp_path("chaos_observatory_" + std::to_string(cell++));
            config.probe = fake_probe;
            config.timeline = true;
            config.service.alerts = *rules;
            config.service.aging_mv_per_epoch = 2.0;
            const recovery_report report = run_recovery_check(config);
            EXPECT_TRUE(report.converged())
                << combo.name << " workers=" << workers << ": "
                << report.failure;
            EXPECT_TRUE(report.timeline_match) << combo.name;
            EXPECT_EQ(report.fired, combo.triggers.size()) << combo.name;
        }
    }
}

TEST(FleetChaosTest, RecoveryHoldsUnderRigFaultsToo) {
    // Chaos (the service dies) on top of rig faults (the probes fail):
    // the fault ledger rides the journal, so even the downtime accounting
    // must converge bitwise with the never-crashed run.
    const fault_plan faults = make_uniform_fault_plan(77, 0.5);
    recovery_check_config config;
    config.spec = small_fleet();
    config.sweeps = {0, -5, 0};
    config.chaos.seed = 99;
    config.chaos.triggers = {{chaos_site::journal_append, 2500},
                             {chaos_site::snapshot_rename, 1}};
    config.service.workers = 8;
    config.work_dir = temp_path("chaos_faulty_recovery");
    config.probe = fake_probe;
    config.service.faults = &faults;
    const recovery_report report = run_recovery_check(config);
    EXPECT_TRUE(report.converged()) << report.failure;
    EXPECT_EQ(report.crashes, 2U);
}

// --- degraded-mode serving ----------------------------------------------

TEST(FleetChaosTest, ExhaustedProbesDegradeTheirCohortsDeterministically) {
    const fault_plan faults = make_uniform_fault_plan(5, 0.85);
    fleet_service_config config;
    config.faults = &faults;
    config.retry_budget = 0;
    config.replan_rounds = 0;
    fleet_service service(small_fleet(), config, fake_probe);
    const campaign_outcome outcome = service.run_campaign(0);
    ASSERT_GT(outcome.degraded, 0U);
    EXPECT_EQ(outcome.executed + outcome.degraded, 36U);
    EXPECT_EQ(service.degraded_cohorts(), outcome.degraded);

    // Quarantined cohorts are served at the nominal bin cap.
    const fleet_spec& spec = service.spec();
    const auto cap = static_cast<std::int64_t>(spec.bin_cap_mv);
    std::uint64_t binned = 0;
    std::uint64_t degraded_nodes = 0;
    for (const cohort_state& cohort : service.cohorts()) {
        EXPECT_TRUE(cohort.probed || cohort.degraded);
        if (cohort.degraded) {
            degraded_nodes += cohort.members;
        }
    }
    for (const auto& [mv, count] : service.bins()) {
        binned += count;
    }
    EXPECT_EQ(binned, service.node_count());
    EXPECT_GE(service.bins().at(cap), degraded_nodes);

    // The snapshot exposes the quarantine and load_status parses it.
    const std::string snapshot = service.state_snapshot();
    EXPECT_NE(snapshot.find("\"degraded\":{"), std::string::npos);
    EXPECT_NE(snapshot.find("\"quarantined\":["), std::string::npos);
    std::string error;
    const auto parsed = report::load_status(snapshot, error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->degraded_cohorts, outcome.degraded);
    EXPECT_EQ(parsed->degraded_nodes, degraded_nodes);
    // At retry 0, a probe either succeeded on its only attempt (clean
    // ledger) or degraded (ledger excluded from the snapshot): the
    // campaign outcome carries the fault totals, the snapshot does not.
    EXPECT_GT(outcome.stats.injected_faults(), 0U);
    EXPECT_EQ(parsed->injected_faults, 0U);

    // Degraded results are never cached: the quarantine recurs (same
    // draws, same outcome) until the rig actually heals.
    const campaign_outcome again = service.run_campaign(0);
    EXPECT_EQ(again.degraded, outcome.degraded);
    EXPECT_EQ(again.executed, 0U);
    EXPECT_EQ(again.cache_hits, outcome.executed);
}

TEST(FleetChaosTest, DegradedSnapshotIsShardAndWorkerInvariant) {
    const fault_plan faults = make_uniform_fault_plan(5, 0.85);
    const auto snapshot_at = [&faults](int workers) {
        fleet_service_config config;
        config.workers = workers;
        config.faults = &faults;
        config.retry_budget = 1;
        config.replan_rounds = 1;
        fleet_service service(small_fleet(), config, fake_probe);
        (void)service.run_campaign(0);
        (void)service.run_campaign(-5);
        return service.state_snapshot();
    };
    const std::string reference = snapshot_at(1);
    ASSERT_NE(reference.find("\"degraded\""), std::string::npos);
    EXPECT_EQ(snapshot_at(4), reference);
    EXPECT_EQ(snapshot_at(8), reference);
}

TEST(FleetChaosTest, ReplanRoundsResolveProbesAndChargeBackoff) {
    const std::string journal_path = temp_path("chaos_replan.journal");
    std::remove(journal_path.c_str());
    const fault_plan faults = make_uniform_fault_plan(11, 0.7);
    fleet_service_config config;
    config.journal_path = journal_path;
    config.faults = &faults;
    config.retry_budget = 1;
    config.replan_rounds = 3;
    fleet_service service(small_fleet(), config, fake_probe);
    const campaign_outcome outcome = service.run_campaign(0);
    EXPECT_GT(outcome.replanned, 0U);
    EXPECT_EQ(outcome.executed + outcome.degraded, 36U);
    EXPECT_GT(outcome.stats.injected_faults(), 0U);
    EXPECT_GT(outcome.stats.rig_downtime_s, 0.0);

    // The ledger rides the journal: re-planned probes carry their
    // exhausted rounds and the backoff they were charged.
    std::uint64_t ledger_faults = 0;
    std::uint64_t exhausted = 0;
    for (const std::string& line : split_lines(slurp(journal_path))) {
        std::size_t task_index = 0;
        std::string_view payload;
        ASSERT_TRUE(parse_journal_prefix(line, task_index, payload));
        cohort_key key;
        std::int64_t sweep = 0;
        std::uint64_t content = 0;
        probe_result result;
        probe_ledger ledger;
        ASSERT_TRUE(parse_probe_line(payload, key, sweep, content, result,
                                     ledger))
            << payload;
        ledger_faults += ledger.retries + ledger.exhausted;
        if (ledger.exhausted > 0) {
            ++exhausted;
            // A probe that needed round N was charged at least the
            // round-1 backoff into its journaled downtime.
            EXPECT_GE(ledger.downtime_s,
                      replan_backoff_s(replan_backoff_base_s, 1));
        }
    }
    EXPECT_GT(ledger_faults, 0U);
    EXPECT_EQ(exhausted, outcome.replanned - outcome.degraded);
}

TEST(FleetChaosTest, FaultAccountingConvergesAcrossRestart) {
    const std::string journal_path = temp_path("chaos_converge.journal");
    std::remove(journal_path.c_str());
    const fault_plan faults = make_uniform_fault_plan(21, 0.5);
    const auto config_for = [&]() {
        fleet_service_config config;
        config.journal_path = journal_path;
        config.faults = &faults;
        config.retry_budget = 1;
        config.replan_rounds = 2;
        return config;
    };
    std::string snapshot_before;
    {
        fleet_service service(small_fleet(), config_for(), fake_probe);
        (void)service.run_campaign(0);
        (void)service.run_campaign(-5);
        snapshot_before = service.state_snapshot();
    }
    // The restarted service replays the same schedule: resolved probes
    // come back from the journal (ledgers fold in the same order) and
    // degraded probes re-fail with the same content-keyed draws -- the
    // snapshot, fault counters included, must be bitwise identical.
    fleet_service restarted(small_fleet(), config_for(), fake_probe);
    EXPECT_GT(restarted.restored(), 0U);
    (void)restarted.run_campaign(0);
    (void)restarted.run_campaign(-5);
    const std::string snapshot = restarted.state_snapshot();
    EXPECT_EQ(snapshot, snapshot_before);
    // Lifetime-local counters stay out of the snapshot: restoration hits
    // live in metrics and accessors only.
    EXPECT_EQ(snapshot.find("\"restored\""), std::string::npos);
}

} // namespace
} // namespace gb::fleet
