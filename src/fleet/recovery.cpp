#include "fleet/recovery.hpp"

#include <filesystem>

#include "util/contracts.hpp"
#include "util/wire.hpp"

namespace gb::fleet {

namespace {

/// First byte offset where the two strings differ (or the shorter length).
std::size_t first_divergence(const std::string& a, const std::string& b) {
    const std::size_t bound = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < bound; ++i) {
        if (a[i] != b[i]) {
            return i;
        }
    }
    return bound;
}

} // namespace

recovery_report run_recovery_check(const recovery_check_config& config) {
    GB_EXPECTS(static_cast<bool>(config.probe));
    GB_EXPECTS(!config.work_dir.empty());
    std::filesystem::create_directories(config.work_dir);

    const std::string golden_journal = config.work_dir + "/golden.journal";
    const std::string golden_state = config.work_dir + "/golden.state";
    const std::string golden_timeline = config.work_dir + "/golden.timeline";
    const std::string chaos_journal = config.work_dir + "/chaos.journal";
    const std::string chaos_state = config.work_dir + "/chaos.state";
    const std::string chaos_timeline = config.work_dir + "/chaos.timeline";
    for (const std::string& stale :
         {golden_journal, golden_state, golden_timeline, chaos_journal,
          chaos_state, chaos_timeline}) {
        std::error_code ec;
        std::filesystem::remove(stale, ec);
        std::filesystem::remove(stale + ".tmp", ec);
    }

    const auto service_config = [&config](const std::string& journal,
                                          const std::string& state,
                                          const std::string& timeline_path,
                                          timeline_recorder* timeline,
                                          chaos_plan* chaos) {
        fleet_service_config sc;
        sc.campaign = "recovery-check";
        sc.shards = config.shards;
        sc.workers = config.workers;
        sc.journal_path = journal;
        sc.state_path = state;
        sc.faults = config.faults;
        sc.retry_budget = config.retry_budget;
        sc.replan_rounds = config.replan_rounds;
        sc.replan_backoff_base_s = config.replan_backoff_base_s;
        sc.chaos = chaos;
        sc.integrity = config.integrity;
        sc.aging_mv_per_epoch = config.aging_mv_per_epoch;
        if (timeline != nullptr) {
            sc.timeline = timeline;
            sc.alerts = config.alerts;
            sc.timeline_path = timeline_path;
        }
        return sc;
    };
    const auto run_schedule = [&config](fleet_service& service) {
        for (const std::int64_t sweep : config.sweeps) {
            (void)service.run_campaign(sweep);
        }
        (void)service.publish_state();
    };

    recovery_report report;

    // Golden run: the bytes every chaos incarnation must converge to.
    {
        timeline_recorder golden_recorder;
        fleet_service golden(
            config.spec,
            service_config(golden_journal, golden_state, golden_timeline,
                           config.timeline ? &golden_recorder : nullptr,
                           nullptr),
            config.probe);
        run_schedule(golden);
    }

    // Chaos run: one shared plan across incarnations (triggers are
    // one-shot, so each fires in exactly one life) in throw mode, each
    // crash abandoning the object mid-flight like a killed process.
    chaos_plan_config chaos_config = config.chaos;
    chaos_config.mode = chaos_plan_config::kill_mode::throw_crash;
    chaos_plan chaos(chaos_config);
    // Every trigger can kill at most one life, so convergence within
    // `triggers + 1` lives is part of the property being checked.
    const std::uint64_t max_lives = chaos_config.triggers.size() + 1;
    bool finished = false;
    while (!finished) {
        if (report.lives == max_lives) {
            report.failure = "no convergence after " +
                             std::to_string(max_lives) +
                             " lives (kill-points kept firing)";
            report.fired = chaos.fired();
            return report;
        }
        ++report.lives;
        try {
            // A fresh recorder + alert engine per life: in-memory
            // observability dies with the process, only the journal's
            // observatory records survive and re-warm it.
            timeline_recorder life_recorder;
            fleet_service incarnation(
                config.spec,
                service_config(chaos_journal, chaos_state, chaos_timeline,
                               config.timeline ? &life_recorder : nullptr,
                               &chaos),
                config.probe);
            // The warm (and any torn-tail heal) happened in the
            // constructor, so record it before the campaigns can crash --
            // heals by intermediate lives count toward the total.
            report.restored = incarnation.restored();
            report.healed_bytes += incarnation.healed_bytes();
            run_schedule(incarnation);
            report.degraded = incarnation.degraded_cohorts();
            finished = true;
        } catch (const chaos_crash&) {
            ++report.crashes;
        }
    }
    report.fired = chaos.fired();

    const std::string golden_journal_bytes =
        read_file(golden_journal).value_or("");
    const std::string chaos_journal_bytes =
        read_file(chaos_journal).value_or("");
    report.journal_match = golden_journal_bytes == chaos_journal_bytes;
    const std::string golden_state_bytes =
        read_file(golden_state).value_or("");
    const std::string chaos_state_bytes =
        read_file(chaos_state).value_or("");
    report.snapshot_match = golden_state_bytes == chaos_state_bytes;
    std::string golden_timeline_bytes;
    std::string chaos_timeline_bytes;
    if (config.timeline) {
        golden_timeline_bytes = read_file(golden_timeline).value_or("");
        chaos_timeline_bytes = read_file(chaos_timeline).value_or("");
        report.timeline_match =
            golden_timeline_bytes == chaos_timeline_bytes;
    }
    if (!report.journal_match) {
        report.failure =
            "journal diverged at byte " +
            std::to_string(first_divergence(golden_journal_bytes,
                                            chaos_journal_bytes)) +
            " (golden " + std::to_string(golden_journal_bytes.size()) +
            " bytes, chaos " +
            std::to_string(chaos_journal_bytes.size()) + ")";
    } else if (!report.snapshot_match) {
        report.failure =
            "snapshot diverged at byte " +
            std::to_string(first_divergence(golden_state_bytes,
                                            chaos_state_bytes)) +
            " (golden " + std::to_string(golden_state_bytes.size()) +
            " bytes, chaos " + std::to_string(chaos_state_bytes.size()) +
            ")";
    } else if (!report.timeline_match) {
        report.failure =
            "timeline diverged at byte " +
            std::to_string(first_divergence(golden_timeline_bytes,
                                            chaos_timeline_bytes)) +
            " (golden " + std::to_string(golden_timeline_bytes.size()) +
            " bytes, chaos " +
            std::to_string(chaos_timeline_bytes.size()) + ")";
    }
    return report;
}

} // namespace gb::fleet
