// fleet_service: the fleet characterization daemon and its query CLI.
//
//   fleet_service serve [options]       run campaigns, publish fleet state
//     --nodes N        fleet size (default 100000)
//     --seed S         fleet spec seed (default 2018)
//     --classes C      workload classes (default 3)
//     --ops P          operating points (default 4)
//     --jobs W         engine workers (default: GB_JOBS)
//     --epochs E       campaigns to run before idling (default 1)
//     --state FILE     fleet-state snapshot endpoint (the query API)
//     --journal FILE   probe-result journal (warm-cache on restart)
//     --trace FILE     Chrome trace of the engine runs
//     --metrics FILE   flat metrics JSON on shutdown
//     --prom FILE      Prometheus text exposition of the metrics on
//                      shutdown
//     --timeline FILE  deterministic timeline.json artifact (enables the
//                      observatory: per-epoch Vmin/fleet samples and
//                      alert records ride the journal)
//     --alerts FILE    alert-rule spec watched at every epoch seal
//                      (requires --timeline; parse errors exit 2 with
//                      path:line diagnostics)
//     --aging MV       synthetic Vmin aging drift, mV per epoch, applied
//                      to served requirements and timeline samples only
//     --control FILE   poll FILE for daemon commands; without it, serve
//                      exits after --epochs campaigns
//     --poll-ms M      control poll interval (default 50)
//     --fault-rate R   uniform rig-fault rate for probe attempts
//     --retry N        probe retries per round (default 3): N + 1 attempts
//     --replan N       backoff re-plan rounds before quarantine (default 2)
//     --chaos SPEC     arm chaos kill-points: comma-separated
//                      site@at[/keep] (see docs/ROBUSTNESS.md); firing
//                      _exit(--chaos-exit)s the daemon mid-write
//     --chaos-exit C   chaos kill exit code (default 42)
//     --sdc SPEC       arm silent-data-corruption triggers: comma-
//                      separated site@at[/param] (vmin_flip, weak_drop,
//                      weak_phantom, power_scale); auto-enables the
//                      quorum defense
//     --quorum N       replicas per probe, majority admitted to the
//                      cache (default: 3 with --sdc, 1 without)
//     --rigs N         Byzantine rig pool size (default: auto)
//     --audit K        re-verify every K-th scheduled cache hit
//                      (default: 4 when defenses are on, 0 otherwise)
//     --blacklist N    dissents before a rig is quarantined (default 2)
//
//   fleet_service query --state FILE [--bins] [--cohorts]
//                                       render a fleet-state snapshot
//   fleet_service query --control FILE --command CMD [--state FILE ...]
//                                       send a daemon command, await ack
//     --ack-retries N  ack polls after the first (default 8)
//     --ack-base-ms M  ack backoff base, doubling per poll (default 20)
//
// The control file accepts one command per write: `campaign <sweep_mv>`
// runs one more campaign, `publish` republishes the snapshot, `shutdown`
// exits cleanly.  A command only exists once its trailing newline is on
// disk (partial bytes are never executed, and are rejected as stale after
// ~20 unchanged polls); the daemon acts *then* acknowledges by
// truncation, so a crash in between redelivers the command on restart --
// at-least-once, safe because every verb is idempotent.
//
// Campaign e probes at a sweep offset of `-5 * (e mod 4)` mV, so a 4-epoch
// cycle revisits identical probe content and the content-addressed cache
// serves it without re-execution.  Every published snapshot is a pure
// function of the campaign history: bitwise identical at any GB_JOBS
// (`gbreport status FILE` renders it too).
//
// Exit codes: 0 success, 1 ack timeout (query --command), 2 usage error
// (an unknown argument included) or malformed input -- a snapshot the
// status writer would not render byte for byte included; --chaos kills
// exit with --chaos-exit.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fleet/control.hpp"
#include "fleet/probe.hpp"
#include "fleet/service.hpp"
#include "harness/chaos/chaos.hpp"
#include "harness/fault_injection.hpp"
#include "harness/status.hpp"
#include "harness/trace/metrics.hpp"
#include "harness/trace/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace gb;
using namespace gb::fleet;

constexpr int exit_ok = 0;
constexpr int exit_ack_timeout = 1;
constexpr int exit_usage = 2;

/// Unchanged partial control bytes tolerated before they are rejected as
/// a stale half-written command.
constexpr int stale_poll_limit = 20;

int usage() {
    std::cerr << "usage: fleet_service <serve|query> [options]\n"
              << "  serve --state FILE [--nodes N] [--seed S] [--classes C]"
                 " [--ops P]\n"
              << "        [--jobs W] [--epochs E] [--journal FILE]\n"
              << "        [--trace FILE] [--metrics FILE] [--prom FILE]"
                 " [--control FILE]\n"
              << "        [--poll-ms M] [--timeline FILE] [--alerts FILE]"
                 " [--aging MV]\n"
              << "        [--fault-rate R] [--retry N] [--replan N]\n"
              << "        [--chaos SPEC] [--chaos-exit C]\n"
              << "        [--sdc SPEC] [--quorum N] [--rigs N] [--audit K]"
                 " [--blacklist N]\n"
              << "  query --state FILE [--bins] [--cohorts]\n"
              << "  query --control FILE --command CMD [--ack-retries N]"
                 " [--ack-base-ms M]\n";
    return exit_usage;
}

int fail(const std::string& message) {
    std::cerr << "fleet_service: " << message << "\n";
    return exit_usage;
}

/// One campaign; logs a deterministic one-line digest to stderr.
void run_one(fleet_service& service, std::int64_t sweep_mv) {
    const campaign_outcome outcome = service.run_campaign(sweep_mv);
    std::cerr << "fleet_service: epoch " << service.epoch() << " sweep "
              << sweep_mv << " mV: " << outcome.probes << " probes, "
              << outcome.cache_hits << " cache hits, " << outcome.executed
              << " executed";
    if (outcome.replanned > 0) {
        std::cerr << ", " << outcome.replanned << " re-planned";
    }
    if (outcome.degraded > 0) {
        std::cerr << ", " << outcome.degraded << " cohorts degraded";
    }
    std::cerr << "\n";
}

int run_serve(int argc, char** argv) {
    const auto state_path = take_flag_value(argc, argv, "--state");
    const auto journal_path = take_flag_value(argc, argv, "--journal");
    const auto trace_path = take_flag_value(argc, argv, "--trace");
    const auto metrics_path = take_flag_value(argc, argv, "--metrics");
    const auto prom_path = take_flag_value(argc, argv, "--prom");
    const auto timeline_path = take_flag_value(argc, argv, "--timeline");
    const auto alerts_path = take_flag_value(argc, argv, "--alerts");
    const auto control_path = take_flag_value(argc, argv, "--control");
    const auto nodes =
        ranged_flag(argc, argv, "--nodes", 100000LL, 1, 10000000);
    const auto seed = ranged_flag(argc, argv, "--seed", 2018LL, 0,
                                  std::numeric_limits<long long>::max());
    const auto classes = ranged_flag(argc, argv, "--classes", 3LL, 1, 64);
    const auto ops = ranged_flag(argc, argv, "--ops", 4LL, 1, 64);
    const auto jobs = ranged_flag(argc, argv, "--jobs", 0LL, 0, 256);
    const auto epochs = ranged_flag(argc, argv, "--epochs", 1LL, 0, 100000);
    const auto poll_ms = ranged_flag(argc, argv, "--poll-ms", 50LL, 1, 60000);
    const auto fault_rate =
        ranged_flag(argc, argv, "--fault-rate", 0.0, 0.0, 0.9);
    const auto retry = ranged_flag(argc, argv, "--retry", 3LL, 0, 64);
    const auto replan = ranged_flag(argc, argv, "--replan", 2LL, 0, 16);
    const auto chaos_spec = take_flag_value(argc, argv, "--chaos");
    const auto chaos_exit =
        ranged_flag(argc, argv, "--chaos-exit", 42LL, 1, 255);
    const auto sdc_spec = take_flag_value(argc, argv, "--sdc");
    // 0 means "auto": quorum 3 once an SDC attack is armed, 1 otherwise
    // (a lone replica per probe is the byte-identical legacy pipeline).
    const auto quorum = ranged_flag(argc, argv, "--quorum", 0LL, 0, 15);
    const auto rigs = ranged_flag(argc, argv, "--rigs", 0LL, 0, 4096);
    const auto audit = ranged_flag(argc, argv, "--audit", -1LL, -1, 1000000);
    const auto blacklist =
        ranged_flag(argc, argv, "--blacklist", 2LL, 1, 1000);
    const auto aging = ranged_flag(argc, argv, "--aging", 0.0, -100.0, 100.0);
    if (!nodes || !seed || !classes || !ops || !jobs || !epochs ||
        !poll_ms || !fault_rate || !retry || !replan || !chaos_exit ||
        !quorum || !rigs || !audit || !blacklist || !aging ||
        leftover_argument(argc, argv, 1)) {
        return exit_usage;
    }
    if (!state_path) {
        return fail("serve requires --state FILE");
    }
    if (alerts_path && !timeline_path) {
        return fail("--alerts requires --timeline FILE");
    }
    std::vector<alert_rule> alert_rules;
    if (alerts_path) {
        std::string error;
        const auto parsed = load_alert_rules_file(*alerts_path, error);
        if (!parsed) {
            return fail(error);
        }
        alert_rules = *parsed;
    }

    fleet_spec spec;
    spec.nodes = static_cast<std::uint64_t>(*nodes);
    spec.seed = static_cast<std::uint64_t>(*seed);
    spec.workload_classes = static_cast<int>(*classes);
    spec.operating_points = static_cast<int>(*ops);

    std::optional<chaos_plan> chaos;
    if (chaos_spec) {
        chaos_plan_config chaos_config;
        chaos_config.seed = spec.seed;
        chaos_config.mode = chaos_plan_config::kill_mode::exit_process;
        chaos_config.exit_code = static_cast<int>(*chaos_exit);
        std::string error;
        if (!parse_chaos_spec(*chaos_spec, chaos_config, error)) {
            return fail(error);
        }
        chaos.emplace(std::move(chaos_config));
    }
    std::optional<fault_plan> faults;
    if (*fault_rate > 0.0) {
        faults = make_uniform_fault_plan(spec.seed, *fault_rate);
    }
    std::optional<sdc_plan> sdc;
    if (sdc_spec) {
        sdc_plan_config sdc_config;
        sdc_config.seed = spec.seed;
        std::string error;
        if (!parse_sdc_spec(*sdc_spec, sdc_config, error)) {
            return fail(error);
        }
        sdc.emplace(std::move(sdc_config));
    }
    const int effective_quorum =
        *quorum != 0 ? static_cast<int>(*quorum) : (sdc ? 3 : 1);
    const bool defended = effective_quorum > 1 || sdc.has_value();
    const std::uint64_t audit_stride =
        *audit >= 0 ? static_cast<std::uint64_t>(*audit)
                    : (defended ? 4 : 0);

    tracer trace;
    metrics_registry metrics;
    timeline_recorder timeline;
    fleet_service_config config;
    config.campaign = "fleet";
    config.workers = static_cast<int>(*jobs);
    config.state_path = *state_path;
    if (journal_path) {
        config.journal_path = *journal_path;
    }
    config.trace = trace_path ? &trace : nullptr;
    config.metrics = (metrics_path || prom_path) ? &metrics : nullptr;
    if (timeline_path) {
        config.timeline = &timeline;
        config.timeline_path = *timeline_path;
        config.alerts = std::move(alert_rules);
    }
    config.aging_mv_per_epoch = *aging;
    config.faults = faults ? &*faults : nullptr;
    config.retry_budget = static_cast<int>(*retry);
    config.replan_rounds = static_cast<int>(*replan);
    config.chaos = chaos ? &*chaos : nullptr;
    config.integrity.quorum = effective_quorum;
    config.integrity.rigs = static_cast<std::uint64_t>(*rigs);
    config.integrity.sdc = sdc ? &*sdc : nullptr;
    config.integrity.audit_stride = audit_stride;
    config.integrity.blacklist_threshold =
        static_cast<std::uint64_t>(*blacklist);

    // A journal that violates the writer's invariants is a hard error (a
    // torn tail self-heals; anything else means foreign edits), reported
    // as a diagnostic rather than a crash.
    std::optional<fleet_service> service_holder;
    try {
        service_holder.emplace(spec, config, make_xgene2_probe(spec));
    } catch (const fleet_journal_error& e) {
        return fail(e.what());
    }
    fleet_service& service = *service_holder;
    if (service.healed_bytes() > 0) {
        std::cerr << "fleet_service: healed " << service.healed_bytes()
                  << " torn journal bytes\n";
    }
    if (service.restored() > 0) {
        std::cerr << "fleet_service: restored " << service.restored()
                  << " probe results from " << *journal_path << "\n";
    }

    const auto sweep_of = [](std::uint64_t epoch) {
        return -5 * static_cast<std::int64_t>(epoch % 4);
    };
    for (long long e = 0; e < *epochs; ++e) {
        run_one(service, sweep_of(service.epoch()));
    }
    service.publish_state();

    if (control_path) {
        // Daemon loop: idle on the control file until `shutdown`.  A
        // command is only actionable once complete (trailing newline on
        // disk); the daemon acts first and acknowledges by truncation
        // *after*, so dying in between redelivers the command on restart
        // -- at-least-once, safe because every verb is idempotent.
        // Re-issue during a slow campaign is impossible: this loop is
        // single-threaded, so the next poll happens after the act.
        bool running = true;
        int stale_polls = 0;
        std::uint64_t last_partial_bytes = 0;
        while (running) {
            const control_read pending = read_control(*control_path);
            switch (pending.status) {
            case control_read::state::empty:
                stale_polls = 0;
                break;
            case control_read::state::oversized:
                std::cerr << "fleet_service: rejecting oversized control "
                             "bytes ("
                          << pending.bytes << " bytes)\n";
                ack_control(*control_path);
                stale_polls = 0;
                break;
            case control_read::state::partial:
                // Half-written command: a live client finishes it within
                // a poll or two; one that died mid-write never does.
                // Reject the stale bytes instead of wedging the channel.
                if (pending.bytes == last_partial_bytes &&
                    ++stale_polls >= stale_poll_limit) {
                    std::cerr << "fleet_service: rejecting stale partial "
                                 "control command ("
                              << pending.bytes << " bytes, no newline)\n";
                    ack_control(*control_path);
                    stale_polls = 0;
                } else if (pending.bytes != last_partial_bytes) {
                    last_partial_bytes = pending.bytes;
                    stale_polls = 0;
                }
                break;
            case control_read::state::complete: {
                stale_polls = 0;
                std::istringstream words(pending.command);
                std::string verb;
                words >> verb;
                if (verb == "shutdown") {
                    running = false;
                } else if (verb == "publish") {
                    service.publish_state();
                } else if (verb == "campaign") {
                    long long sweep = 0;
                    if (words >> sweep && sweep >= -500 && sweep <= 500) {
                        run_one(service, sweep);
                    } else {
                        std::cerr << "fleet_service: ignoring malformed "
                                     "control command: "
                                  << pending.command << "\n";
                    }
                } else {
                    std::cerr
                        << "fleet_service: ignoring unknown control "
                           "command: "
                        << pending.command << "\n";
                }
                if (chaos && chaos->on_control_command()) {
                    // Acted but not yet acknowledged: the restart will
                    // see the command again and redo it.
                    chaos->kill(chaos_site::control_command);
                }
                ack_control(*control_path);
                break;
            }
            }
            if (running) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(*poll_ms));
            }
        }
        std::remove(control_path->c_str());
    }

    service.publish_state();
    if (trace_path) {
        std::ofstream out(*trace_path);
        write_chrome_trace(out, trace);
    }
    if (metrics_path) {
        std::ofstream out(*metrics_path);
        write_metrics_json(out, metrics);
    }
    if (prom_path) {
        std::ofstream out(*prom_path);
        write_prometheus_text(out, metrics);
    }
    if (timeline_path) {
        service.publish_timeline();
        const alert_engine* alerts = service.alert_state();
        std::cerr << "fleet_service: timeline " << timeline.series_count()
                  << " series, " << timeline.sample_count() << " samples";
        if (alerts != nullptr && !alerts->rules().empty()) {
            std::cerr << ", " << alerts->firing_count() << " alerts firing";
        }
        std::cerr << "\n";
    }
    if (defended || audit_stride > 0) {
        std::cerr << "fleet_service: integrity: " << service.sdc_injected()
                  << " injected, " << service.sdc_detected()
                  << " detected, " << service.sdc_corrected()
                  << " corrected, " << service.sdc_escaped()
                  << " escaped (" << service.audits() << " audits, "
                  << service.reputation().blacklisted_count()
                  << " blacklisted rigs)\n";
    }
    std::cerr << "fleet_service: shut down after " << service.epoch()
              << " epochs, cache " << service.cache().size() << " entries ("
              << service.cache().hits() << " hits)\n";
    return exit_ok;
}

int run_query(int argc, char** argv) {
    const auto state_path = take_flag_value(argc, argv, "--state");
    const bool show_bins = take_flag(argc, argv, "--bins");
    const bool show_cohorts = take_flag(argc, argv, "--cohorts");
    const auto control_path = take_flag_value(argc, argv, "--control");
    const auto command = take_flag_value(argc, argv, "--command");
    const auto ack_retries =
        ranged_flag(argc, argv, "--ack-retries", 8LL, 0, 1000);
    const auto ack_base_ms =
        ranged_flag(argc, argv, "--ack-base-ms", 20LL, 0, 60000);
    if (!ack_retries || !ack_base_ms || leftover_argument(argc, argv, 1)) {
        return exit_usage;
    }
    if (command) {
        if (!control_path) {
            return fail("--command requires --control FILE");
        }
        // Send, then wait for the daemon's truncation ack with a bounded
        // exponential-backoff schedule -- never spin forever on a daemon
        // that died before acknowledging.
        if (!write_control(*control_path, *command)) {
            return fail("cannot write " + *control_path);
        }
        ack_wait_config ack;
        ack.retries = static_cast<int>(*ack_retries);
        ack.backoff_base_ms = static_cast<int>(*ack_base_ms);
        const bool acked =
            await_control_ack(*control_path, ack, [](int delay_ms) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(delay_ms));
            });
        if (!acked) {
            std::cerr << "fleet_service: no ack for '" << *command
                      << "' after " << *ack_retries
                      << " retries; daemon down or wedged\n";
            return exit_ack_timeout;
        }
        std::cerr << "fleet_service: command '" << *command
                  << "' acknowledged\n";
        if (!state_path) {
            return exit_ok;
        }
    }
    if (!state_path) {
        return fail("query requires --state FILE (or --command)");
    }
    const std::optional<std::string> text = read_file(*state_path);
    if (!text) {
        return fail("cannot read " + *state_path);
    }
    std::string error;
    const std::optional<campaign_status> status =
        read_status_json(*text, error);
    if (!status) {
        return fail(*state_path + ": " + error);
    }
    if (!status->fleet) {
        return fail(*state_path + ": not a fleet-state snapshot (no "
                                  "\"fleet\" object)");
    }
    const fleet_status& fleet = *status->fleet;

    std::cout << "fleet \"" << status->campaign << "\": epoch "
              << fleet.epoch << ", " << fleet.nodes << " nodes in "
              << fleet.cohorts << " cohorts\n";
    std::cout << "probes: " << status->tasks_total << " served, "
              << fleet.probes_executed << " executed, " << fleet.cache_hits
              << " cache hits (" << fleet.cache_entries << " entries)\n";
    if (fleet.degraded.cohorts > 0) {
        std::cout << "DEGRADED: " << fleet.degraded.cohorts << " cohorts ("
                  << fleet.degraded.nodes
                  << " nodes) quarantined at the nominal bin cap\n";
    }
    std::cout << "power: " << format_number(fleet.power_nominal_w, 0)
              << " W nominal vs " << format_number(fleet.power_binned_w, 0)
              << " W at revealed points";
    if (fleet.power_nominal_w > 0.0) {
        std::cout << " ("
                  << format_percent(
                         1.0 - fleet.power_binned_w / fleet.power_nominal_w,
                         1)
                  << " saved)";
    }
    std::cout << "\n";
    if (fleet.supervised_cohorts > 0) {
        std::cout << "supervision: " << fleet.supervised_cohorts
                  << " cohorts, " << fleet.supervised_epochs
                  << " supervised epochs\n";
    }
    if (const auto& timeline = fleet.timeline) {
        std::cout << "timeline: " << timeline->series << " series, "
                  << timeline->samples << " samples, " << timeline->rules
                  << " rules";
        if (!timeline->firing.empty()) {
            std::cout << "; FIRING:";
            for (const std::string& label : timeline->firing) {
                std::cout << ' ' << label;
            }
        }
        std::cout << "\n";
    }

    if (show_bins && !fleet.bins.empty()) {
        std::cout << "\n";
        text_table table({"voltage class mV", "nodes"});
        for (const auto& [voltage, nodes] : fleet.bins) {
            table.add_row({std::to_string(voltage), std::to_string(nodes)});
        }
        table.render(std::cout);
    }
    if (show_cohorts && !fleet.cohorts_top.empty()) {
        std::cout << "\n";
        text_table table({"corner", "class", "op", "members", "req mV"});
        for (const status_cohort_probe& row : fleet.cohorts_top) {
            table.add_row({row.cohort.corner,
                           std::to_string(row.cohort.workload_class),
                           std::to_string(row.cohort.operating_point),
                           std::to_string(row.cohort.members),
                           format_number(row.req_mv, 1)});
        }
        table.render(std::cout);
    }
    return exit_ok;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        return usage();
    }
    const std::string command = argv[1];
    // Shift the subcommand out so flag helpers see a flat argv.
    for (int i = 1; i + 1 < argc; ++i) {
        argv[i] = argv[i + 1];
    }
    --argc;
    if (command == "serve") {
        return run_serve(argc, argv);
    }
    if (command == "query") {
        return run_query(argc, argv);
    }
    return usage();
}
