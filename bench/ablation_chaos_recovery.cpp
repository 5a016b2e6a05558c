// Ablation -- what crash-consistent recovery and degraded-mode serving
// cost.  Runs the recovery checker over a 10^5-node simulated X-Gene2
// fleet with three kill-points armed (a torn journal append, a crash
// during the next life's cache warm, and a missing snapshot rename): the
// service dies three times and must still converge to bitwise the same
// journal and snapshot as the never-crashed golden run.  A second
// experiment serves the same fleet through a hostile rig (uniform fault
// plan) and quarantines the cohorts whose probes never resolve.  The
// baseline pins the recovery accounting (crashes, lives, restores,
// healed bytes) and the quarantine roster exactly -- any drift is a
// crash-consistency bug, not a perf question -- and publishes the
// golden-vs-chaos wall medians that price the recovery path.
#include <filesystem>
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "fleet/probe.hpp"
#include "fleet/recovery.hpp"
#include "fleet/service.hpp"
#include "harness/chaos/chaos.hpp"
#include "harness/fault_injection.hpp"
#include "util/table.hpp"

using namespace gb;
using namespace gb::fleet;

namespace {

fleet_spec mega_fleet() {
    fleet_spec spec;
    spec.nodes = 100000;
    return spec;
}

} // namespace

int main(int argc, char** argv) {
    bench::metrics_reporter reporter(argc, argv);
    bench::baseline_reporter baseline(argc, argv, "ablation_chaos_recovery");
    bench::banner(
        "Ablation -- chaos recovery and degraded-mode serving",
        "a fleet daemon that exploits guardbands must survive its own "
        "crashes: every armed kill-point (torn journal, killed warm, "
        "missing rename) must recover to bitwise the state an unfaulted "
        "run produces, and probes a hostile rig never resolves must "
        "quarantine their cohorts at the nominal bin instead of failing "
        "the campaign");

    const fleet_spec spec = mega_fleet();
    const probe_fn probe = make_xgene2_probe(spec);

    // --- crash-consistent recovery under three kill-points --------------
    recovery_check_config recovery;
    recovery.spec = spec;
    recovery.sweeps = {0, -20, 0};
    recovery.chaos.seed = 2024;
    // Explicit 57-byte tear: the heal is pinned nonzero in the baseline.
    recovery.chaos.triggers = {{chaos_site::journal_append, 2000, 57},
                               {chaos_site::cache_warm, 5},
                               {chaos_site::snapshot_rename, 1}};
    recovery.shards = 4;
    recovery.workers = 8;
    recovery.work_dir = bench::temp_path("gb_chaos_bench");
    recovery.probe = probe;
    recovery_report report;
    baseline.time("recovery_check",
                  [&] { report = run_recovery_check(recovery); });

    // --- degraded-mode serving under a hostile rig -----------------------
    const fault_plan faults = make_uniform_fault_plan(7, 0.8);
    fleet_service_config degraded_config;
    degraded_config.campaign = "chaos_bench_degraded";
    degraded_config.faults = &faults;
    degraded_config.retry_budget = 1;
    degraded_config.replan_rounds = 1;
    fleet_service degraded_service(spec, degraded_config, probe);
    campaign_outcome degraded;
    baseline.time("degraded_campaign",
                  [&] { degraded = degraded_service.run_campaign(0); });

    text_table table({"experiment", "result"});
    table.add_row({"kill-points fired", std::to_string(report.fired)});
    table.add_row({"crashes survived", std::to_string(report.crashes)});
    table.add_row({"service lives", std::to_string(report.lives)});
    table.add_row({"journal bytes healed",
                   std::to_string(report.healed_bytes)});
    table.add_row({"probes restored from journal",
                   std::to_string(report.restored)});
    table.add_row({"bitwise convergence",
                   report.converged() ? "yes" : "NO: " + report.failure});
    table.add_row({"degraded cohorts (hostile rig)",
                   std::to_string(degraded.degraded) + " of " +
                       std::to_string(degraded.probes)});
    table.render(std::cout);

    // Exact content metrics: the whole recovery ledger and the
    // quarantine.  All deterministic -- the chaos tears, the fault draws
    // and the re-plan schedule derive from pinned seeds.
    baseline.counter("recovery.fired", report.fired);
    baseline.counter("recovery.crashes", report.crashes);
    baseline.counter("recovery.lives", report.lives);
    baseline.counter("recovery.restored", report.restored);
    baseline.counter("recovery.healed_bytes", report.healed_bytes);
    baseline.counter("recovery.converged", report.converged() ? 1 : 0);
    std::error_code ec;
    const auto journal_bytes = std::filesystem::file_size(
        recovery.work_dir + "/chaos.journal", ec);
    baseline.counter("recovery.journal_bytes", ec ? 0 : journal_bytes);
    baseline.counter("degraded.cohorts", degraded.degraded);
    baseline.counter("degraded.executed", degraded.executed);
    baseline.counter("degraded.replanned", degraded.replanned);
    baseline.counter("degraded.injected_faults",
                     degraded.stats.injected_faults());
    baseline.counter("degraded.downtime_ms",
                     static_cast<std::uint64_t>(
                         degraded.stats.rig_downtime_s * 1000.0));
    for (const cohort_state& cohort : degraded_service.cohorts()) {
        baseline.fold(cohort.degraded ? 1 : 0);
    }

    bench::note("the recovery check's chaos run pays three extra service "
                "constructions (journal warm included) on top of the "
                "golden schedule, and still lands on identical bytes; the "
                "degraded campaign shows quarantine is a bounded cost -- "
                "unresolved cohorts serve conservatively at the nominal "
                "bin while everything the rig did resolve keeps its "
                "revealed guardband");

    if (!report.converged()) {
        std::cerr << "FAIL: chaos run did not converge: " << report.failure
                  << "\n";
        return 1;
    }
    if (report.crashes != recovery.chaos.triggers.size()) {
        std::cerr << "FAIL: every armed kill-point should crash one life\n";
        return 1;
    }
    if (degraded.degraded == 0 ||
        degraded.executed + degraded.degraded != degraded.probes) {
        std::cerr << "FAIL: hostile rig should quarantine some cohorts and "
                     "account for the rest\n";
        return 1;
    }
    reporter.emit();
    baseline.emit();
    return 0;
}
