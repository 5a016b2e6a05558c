// Ablation -- what the SDC defenses cost and what they catch.  Serves a
// 10^5-node simulated X-Gene2 fleet three ways:
//
//   * undefended (quorum 1, no audit): a one-vote admission over the same
//     chained journal every config writes -- the wall and byte baseline
//     every defense is priced against;
//   * defended under attack (quorum 3 + audit sampler, four seeded
//     corruptions -- one per SDC site -- across the schedule): every
//     injection must be outvoted at admission and the journal/snapshot
//     must land bitwise on the clean defended run's bytes;
//   * single-sourced with audit repair (quorum 1, every scheduled hit
//     audited, one poisoned admission): the audit must catch the poison
//     on the revisit, arbitrate, and repair cache + journal back to the
//     never-poisoned bytes.
//
// The baseline pins the entire integrity ledger exactly (injected,
// detected, outvoted, corrected, escaped, repairs) plus the convergence
// bits -- drift there is a correctness bug, not a perf question -- and
// publishes the wall medians that price quorum redundancy and auditing.
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>

#include "bench_util.hpp"
#include "fleet/probe.hpp"
#include "fleet/service.hpp"
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

struct serve_result {
    std::string journal;
    std::string snapshot;
    std::uint64_t injected = 0;
    std::uint64_t detected = 0;
    std::uint64_t outvoted = 0;
    std::uint64_t corrected = 0;
    std::uint64_t escaped = 0;
    std::uint64_t audits = 0;
    std::uint64_t audit_mismatches = 0;
    std::uint64_t repaired = 0;
    std::uint64_t replica_executions = 0;
};

} // namespace

int main(int argc, char** argv) {
    bench::metrics_reporter reporter(argc, argv);
    bench::baseline_reporter baseline(argc, argv, "ablation_sdc_audit");
    bench::banner(
        "Ablation -- SDC defense cost and efficacy",
        "a guardband ledger is only as good as its integrity: a Byzantine "
        "rig that silently flips a measured Vmin poisons every node binned "
        "from it, so admission is quorum-voted across disjoint rigs, the "
        "journal is hash-chained, and cache hits are audit-sampled; the "
        "defended pipeline must land bitwise on the clean pipeline's "
        "bytes while paying only the redundancy it advertises");

    const fleet_spec spec = mega_fleet();
    const probe_fn probe = make_xgene2_probe(spec);

    const auto serve = [&](const std::string& name,
                           const std::vector<std::int64_t>& sweeps,
                           int quorum, std::uint64_t audit_stride,
                           const char* sdc_spec) {
        const std::string journal_path = bench::temp_path(name + ".journal");
        std::remove(journal_path.c_str());
        std::optional<sdc_plan> sdc;
        if (sdc_spec != nullptr) {
            sdc_plan_config sdc_config;
            sdc_config.seed = spec.seed;
            std::string error;
            if (!parse_sdc_spec(sdc_spec, sdc_config, error)) {
                std::cerr << "FAIL: bad sdc spec: " << error << "\n";
                std::exit(1);
            }
            sdc.emplace(std::move(sdc_config));
        }
        fleet_service_config config;
        config.campaign = "sdc_bench";
        config.journal_path = journal_path;
        config.integrity.quorum = quorum;
        config.integrity.sdc = sdc ? &*sdc : nullptr;
        config.integrity.audit_stride = audit_stride;
        fleet_service service(spec, config, probe);
        for (const std::int64_t sweep : sweeps) {
            (void)service.run_campaign(sweep);
        }
        serve_result result;
        result.journal = read_file(journal_path).value_or("");
        result.snapshot = service.state_snapshot();
        result.injected = service.sdc_injected();
        result.detected = service.sdc_detected();
        result.outvoted = service.sdc_outvoted();
        result.corrected = service.sdc_corrected();
        result.escaped = service.sdc_escaped();
        result.audits = service.audits();
        result.audit_mismatches = service.audit_mismatches();
        result.repaired = service.repaired_entries();
        result.replica_executions = service.replica_executions();
        return result;
    };

    const std::vector<std::int64_t> schedule = {0, -20, 0};

    // --- cost: undefended vs defended, no attack -------------------------
    serve_result undefended;
    baseline.time("undefended_schedule", [&] {
        undefended = serve("gb_sdc_bench_plain", schedule, 1, 0, nullptr);
    });
    serve_result defended;
    baseline.time("defended_schedule", [&] {
        defended = serve("gb_sdc_bench_clean", schedule, 3, 4, nullptr);
    });

    // --- efficacy: quorum 3 under a four-site attack ---------------------
    // One corruption per SDC site, each landing on a distinct probe's
    // replica across the first two campaigns (3 replicas x 36 probes per
    // campaign; the third campaign is all scheduled hits).
    serve_result attacked;
    baseline.time("attacked_schedule", [&] {
        attacked = serve("gb_sdc_bench_attack", schedule, 3, 4,
                         "vmin_flip@5,power_scale@50/37,weak_drop@120,"
                         "weak_phantom@200");
    });
    const bool quorum_converged = attacked.journal == defended.journal &&
                                  attacked.snapshot == defended.snapshot;

    // --- repair: single-sourced poison caught by the audit sampler -------
    serve_result plain_audit;
    serve_result repaired;
    baseline.time("audit_repair_schedule", [&] {
        plain_audit = serve("gb_sdc_bench_audit_ref", {0, 0}, 1, 1, nullptr);
        repaired = serve("gb_sdc_bench_audit", {0, 0}, 1, 1, "vmin_flip@5");
    });
    const bool repair_converged =
        repaired.journal == plain_audit.journal &&
        repaired.snapshot == plain_audit.snapshot;

    text_table table({"experiment", "result"});
    table.add_row({"defended journal bytes",
                   std::to_string(defended.journal.size()) + " (plain " +
                       std::to_string(undefended.journal.size()) + ")"});
    table.add_row({"replica executions (quorum 3)",
                   std::to_string(defended.replica_executions)});
    table.add_row({"attack: injected / outvoted / escaped",
                   std::to_string(attacked.injected) + " / " +
                       std::to_string(attacked.outvoted) + " / " +
                       std::to_string(attacked.escaped)});
    table.add_row({"attack converged to clean bytes",
                   quorum_converged ? "yes" : "NO"});
    table.add_row({"audit: caught / corrected / repaired entries",
                   std::to_string(repaired.audit_mismatches) + " / " +
                       std::to_string(repaired.corrected) + " / " +
                       std::to_string(repaired.repaired)});
    table.add_row({"audit repair converged to clean bytes",
                   repair_converged ? "yes" : "NO"});
    table.render(std::cout);

    // Exact content metrics: the integrity ledger is deterministic end to
    // end (content-keyed rig assignment, seeded corruption draws, serial
    // opportunity order), so every count pins exactly.
    baseline.counter("plain.journal_bytes", undefended.journal.size());
    baseline.counter("defended.journal_bytes", defended.journal.size());
    baseline.counter("defended.replica_executions",
                     defended.replica_executions);
    baseline.counter("defended.audits", defended.audits);
    baseline.counter("attack.injected", attacked.injected);
    baseline.counter("attack.detected", attacked.detected);
    baseline.counter("attack.outvoted", attacked.outvoted);
    baseline.counter("attack.escaped", attacked.escaped);
    baseline.counter("attack.converged", quorum_converged ? 1 : 0);
    baseline.counter("audit.audits", repaired.audits);
    baseline.counter("audit.mismatches", repaired.audit_mismatches);
    baseline.counter("audit.corrected", repaired.corrected);
    baseline.counter("audit.repaired_entries", repaired.repaired);
    baseline.counter("audit.escaped", repaired.escaped);
    baseline.counter("audit.converged", repair_converged ? 1 : 0);
    // The served bins and the journal bytes themselves: every schedule's
    // journal, then its state snapshot.
    for (const serve_result* result :
         {&undefended, &defended, &attacked, &plain_audit, &repaired}) {
        for (const std::string* bytes : {&result->journal, &result->snapshot}) {
            for (const char byte : *bytes) {
                baseline.fold(static_cast<unsigned char>(byte));
            }
        }
    }

    bench::note("quorum 3 prices every distinct probe at three executions "
                "and each audit at one more, all drawn at serial points so "
                "the defended bytes stay worker-invariant; every config "
                "writes the same hash-chained journal format, which "
                "is what lets one fleet mix defended and undefended daemons "
                "against the same journals");

    if (attacked.escaped != 0 || !quorum_converged) {
        std::cerr << "FAIL: quorum defense let a corruption through\n";
        return 1;
    }
    if (repaired.corrected != 1 || !repair_converged) {
        std::cerr << "FAIL: audit repair did not converge\n";
        return 1;
    }
    if (undefended.journal.find(" chain=") == std::string::npos) {
        std::cerr << "FAIL: undefended journal is not hash-chained\n";
        return 1;
    }
    reporter.emit();
    baseline.emit();
    return 0;
}
