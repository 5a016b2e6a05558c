// Crash-consistent recovery checker for the fleet service.
//
// The chaos harness (harness/chaos) makes the daemon die at its
// persistence seams; this module makes recovery a *verified property*
// instead of a hope.  `run_recovery_check` runs the same campaign
// schedule twice over one fleet spec:
//
//   * a **golden** run -- fresh service, no chaos, every sweep in order,
//     final snapshot published;
//   * a **chaos** run -- the same schedule with the caller's kill-points
//     armed.  Each time a kill-point fires the service object is
//     abandoned exactly as a killed process would leave it (the partial
//     on-disk bytes are the only survivors), and a new service
//     incarnation is constructed over those bytes: it self-heals the
//     journal's torn tail, warms its cache from the intact records, and
//     re-executes only the probes the crash lost.  Kill-points during
//     that warm are survived the same way (recovery of the recovery
//     path).
//
// Convergence is then asserted *bitwise*: the chaos run's final journal
// bytes and snapshot bytes must equal the golden run's.  That is the
// strongest possible statement of crash consistency -- not "the daemon
// restarts", but "after any armed crash, the persistent state the fleet
// serves is indistinguishable from one that never crashed".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/service.hpp"
#include "harness/chaos/chaos.hpp"

namespace gb::fleet {

struct recovery_check_config {
    fleet_spec spec;
    /// Campaign schedule, replayed from the start by every service
    /// incarnation (campaigns already journaled become cache hits).
    std::vector<std::int64_t> sweeps;
    /// Kill-points to arm.  The mode is forced to `throw_crash` -- the
    /// checker survives crashes in-process by abandoning the object.
    chaos_plan_config chaos;
    /// Scratch directory; `golden.journal/.state` and
    /// `chaos.journal/.state` are created (and clobbered) inside.
    std::string work_dir;
    probe_fn probe;
    /// Service configuration of both runs (workers, rig-fault plan, retry
    /// and re-plan budgets, integrity defenses, alert rules, aging).  The
    /// checker overrides the campaign name, the journal, state and
    /// timeline paths, the timeline recorder and `chaos`.  A shared
    /// `integrity.sdc` plan fires its one-shot triggers in whichever run
    /// executes first -- callers who want the golden run clean should
    /// compare against a separate clean reference.
    fleet_service_config service;
    /// Observatory under test: when true each run gets its *own fresh*
    /// timeline recorder + alert engine per incarnation (in-memory
    /// observability dies with the process; only the journal survives),
    /// a `golden.timeline`/`chaos.timeline` artifact, and the report
    /// additionally asserts bitwise timeline convergence.  `service.alerts`
    /// apply only while this is on.
    bool timeline = false;
};

struct recovery_report {
    std::uint64_t crashes = 0;      ///< chaos kills survived
    std::uint64_t lives = 0;        ///< service incarnations (>= 1)
    std::uint64_t fired = 0;        ///< kill-points that actually fired
    std::uint64_t restored = 0;     ///< cache entries warmed, final life
    std::uint64_t healed_bytes = 0; ///< torn-tail bytes truncated, total
    std::uint64_t degraded = 0;     ///< degraded cohorts, final snapshot
    bool journal_match = false;     ///< chaos journal == golden journal
    bool snapshot_match = false;    ///< chaos snapshot == golden snapshot
    /// chaos timeline.json == golden timeline.json (true when the
    /// observatory is off: nothing to diverge).
    bool timeline_match = true;
    std::string failure;            ///< first divergence; empty if none
    [[nodiscard]] bool converged() const {
        return journal_match && snapshot_match && timeline_match &&
               failure.empty();
    }
};

/// Run the golden and chaos campaigns and compare their persistent state
/// byte for byte.  Throws only on harness misuse (missing probe,
/// unwritable work_dir); chaos outcomes are reported, not thrown.
[[nodiscard]] recovery_report run_recovery_check(
    const recovery_check_config& config);

} // namespace gb::fleet
