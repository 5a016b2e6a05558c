// Fleet characterization service: the long-lived campaign loop that
// turns the one-shot runners into a queryable daemon.
//
// One `fleet_service` owns a fleet (fleet.hpp), a content-addressed
// probe cache (probe_cache.hpp) and the observability sinks, and runs
// characterization campaigns through the deterministic execution engine:
//
//   1. enumerate the fleet's cohorts in sorted key order and consult the
//      cache -- identical probes execute once per service lifetime;
//   2. plan rig faults for the remaining probes serially, then run the
//      probes that resolved as one execution-engine run per re-plan
//      round, with trace/metrics threaded through;
//   3. append one journal line per executed probe *serially, in sorted
//      cohort order* after the engine drains -- unlike the task journal's
//      completion-order lines, the fleet journal is bitwise identical at
//      any GB_JOBS, and doubles round-trip exactly, so a restarted daemon
//      warms its cache from the journal and re-executes nothing;
//   4. fan the cohort results out to every node (deterministic per-node
//      jitter, voltage-class binning, power accounting in node-id order)
//      and publish the fleet state snapshot.
//
// The query API is a polled file endpoint: `state_snapshot()` renders
// deterministic bytes -- the `--status` heartbeat schema (status.hpp)
// extended with a `"fleet"` object, so `gbreport status` keeps working on
// fleet snapshots unchanged -- and `publish_state()` writes them with the
// same atomic temp+rename discipline.  Probe seeds derive from probe
// *content*, never from engine task indices, which is what makes the
// snapshot and journal invariant under the worker count.
//
// The service also fronts the core exploitation stack: `supervisor_for`
// keeps one operating-point supervisor per cohort and `run_epoch` drives
// it, so clients (uniserver_autopilot) run supervised epochs against the
// service instead of wiring supervisors by hand.
//
// Failure is a first-class input (docs/ROBUSTNESS.md).  A rig-fault plan
// makes probe attempts fail -- drawn per probe *content*, never per engine
// task index, so faulty campaigns stay invariant under the worker count --
// with bounded retry, then exponential-backoff re-plan rounds, and finally
// quarantine: cohorts whose probes never resolve are served *degraded*
// (binned at the nominal `bin_cap_mv` class, exposed in the snapshot's
// "degraded" section) instead of failing the campaign.  A chaos plan
// (harness/chaos) arms kill-points at every persistence seam; recovery is
// verified by fleet/recovery.hpp, which restarts the service from the
// post-crash bytes and asserts bitwise convergence with an unfaulted run.
// The journal warm path is correspondingly strict: it self-heals a torn
// tail (the only damage a crash of *this* writer can cause) and rejects
// everything else -- mid-file garbage, serial gaps, cohort-order
// violations, duplicate or contradictory entries -- with
// `fleet_journal_error` diagnostics rather than silently re-executing.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/supervisor.hpp"
#include "fleet/fleet.hpp"
#include "fleet/probe_cache.hpp"
#include "harness/execution_engine.hpp"
#include "harness/fault_injection.hpp"
#include "harness/integrity/integrity.hpp"
#include "harness/journal.hpp"
#include "harness/timeseries/alerts.hpp"

namespace gb {
class tracer;
class metrics_registry;
} // namespace gb

namespace gb::fleet {

/// One characterization probe request.  Everything a probe may depend on
/// is in here, and `seed` derives from `content` alone -- not from the
/// engine task index -- so a probe's result is invariant under
/// re-ordering and the worker count.
struct probe_request {
    cohort_key cohort;
    std::int64_t sweep_mv = 0;  ///< campaign-wide supply offset probed
    std::uint64_t content = 0;  ///< cache key (fleet.hpp probe_content)
    std::uint64_t seed = 0;     ///< derive_task_seed(spec seed, content)
    std::uint64_t members = 0;  ///< cohort population (observability only)
};

/// Executes one probe.  Called concurrently from engine workers: must be
/// a pure function of the request (plus read-only shared state).  The
/// service relies on that purity: it calls the probe once per executed
/// probe, audited hit or re-arbitrated record and hands the one value to
/// every quorum replica, so an impure probe would vote with itself.
using probe_fn = std::function<probe_result(const probe_request&)>;

/// The fleet journal violated an invariant the writer guarantees --
/// anything beyond a torn tail, which the warm path heals itself.  The
/// message carries the path, line number and violated invariant.
class fleet_journal_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// What the rig did to one probe before it resolved, journaled with the
/// result so a restarted daemon's fault accounting converges bitwise with
/// the unfaulted run's (fault draws are content-keyed, so the ledger is a
/// property of the probe, not of which service lifetime executed it).
/// `exhausted` counts the re-plan rounds that ran out of attempts, and
/// `downtime_s` adds the re-plan backoff charges to the rig recovery time.
using probe_ledger = rig_ledger;

/// The SDC defense knobs (docs/ROBUSTNESS.md "Silent data corruption").
/// The admission vote and the hash-chained journal are unconditional --
/// the defaults (quorum 1, no attack, no audit) are a one-vote tally over
/// a chained record -- and these knobs only add redundancy, an attack and
/// audit sampling on top.
struct fleet_integrity_config {
    /// Replicas per distinct probe, executed on disjoint simulated rigs;
    /// the majority value is admitted (N = 2f + 1 corrects f corrupt
    /// rigs).  1 = no redundancy (single-sourced admission).
    int quorum = 1;
    /// Simulated rig pool size; 0 derives max(quorum, 8).  Values below
    /// the quorum are raised to it (disjoint assignment needs one rig per
    /// replica).
    std::uint64_t rigs = 0;
    /// Seeded silent-corruption plan (null: honest rigs).  Decisions are
    /// drawn at serial points only, so corrupted campaigns stay bitwise
    /// worker-invariant.
    sdc_plan* sdc = nullptr;
    /// Re-verify every `audit_stride`-th scheduled cache hit against a
    /// fresh execution (0: no auditing).  Keyed by the crash-invariant
    /// scheduled-hit count, so audit schedules converge across restarts.
    std::uint64_t audit_stride = 0;
    /// Outvoted dissents before a rig is blacklisted and its sole-sourced
    /// journal entries re-executed.
    std::uint64_t blacklist_threshold = 2;

    /// Any knob above its default; the service then registers the
    /// `integrity.*` gauges (an undefended run's metrics carry none, so
    /// `gbreport audit` can never read it as clean).
    [[nodiscard]] bool enabled() const {
        return quorum > 1 || sdc != nullptr || audit_stride > 0;
    }
};

/// Base of the re-plan backoff schedule, charged per probe per round into
/// its journaled downtime (virtual seconds, no real sleeping).
inline constexpr double replan_backoff_base_s = 5.0;

struct fleet_service_config {
    /// Campaign name for status snapshots and trace spans.
    std::string campaign = "fleet";
    /// Engine workers per engine run (<= 0: GB_JOBS, see
    /// execution_engine).
    int workers = 0;
    /// Probe-result journal (empty: disabled).  Appended serially in
    /// sorted cohort order; an existing file warms the cache on
    /// construction (daemon restart).
    std::string journal_path;
    /// Fleet state snapshot endpoint (empty: publish_state disabled).
    std::string state_path;
    /// Deterministic observability sinks (either may be null).
    tracer* trace = nullptr;
    metrics_registry* metrics = nullptr;
    /// Rig-fault plan for probe attempts (null: healthy rig).  Draws are
    /// keyed by probe content and re-plan round, never by engine task
    /// index, so faulty results stay worker-invariant.
    const fault_plan* faults = nullptr;
    /// RETRIES per probe replica per round, not attempts: a round spends
    /// `retry_budget + 1` attempts (charge_attempts) before the probe is
    /// deferred to the next round, so 0 still makes one attempt.  (The
    /// engine's and the campaign IO structs' retry_budget count attempts.)
    int retry_budget = 3;
    /// Re-plan rounds after the main round for exhausted probes, each
    /// preceded by an exponential backoff charge (replan_backoff_s over
    /// replan_backoff_base_s).  Probes still unresolved after the last
    /// round degrade their cohort.
    int replan_rounds = 2;
    /// Chaos kill-point plan armed at the journal, snapshot and warm
    /// seams (null: no chaos).  See harness/chaos/chaos.hpp.
    chaos_plan* chaos = nullptr;
    /// SDC attack + defense configuration.  Every journal record carries
    /// ` rigs=` provenance and a running ` chain=` hash (verified on warm)
    /// whatever the configuration.
    fleet_integrity_config integrity;
    /// Deterministic time-series sink (null: the observatory is off and
    /// every journal, snapshot and metrics byte is unchanged).  When set,
    /// each campaign closes with one crash-invariant observatory block --
    /// per-cohort Vmin, cache hit rate, degraded-cohort count and fleet
    /// power samples plus any alert transitions -- journaled as
    /// `tline`/`alert` records sealed by a `tseal`, and a restarted daemon
    /// warms the recorder and alert state from those records, so the
    /// timeline artifact converges bitwise across crash/restart.
    timeline_recorder* timeline = nullptr;
    /// Alert rules evaluated against the timeline at every epoch seal
    /// (ignored while `timeline` is null).
    std::vector<alert_rule> alerts;
    /// Synthetic Vmin aging drift, mV per settled epoch, applied to the
    /// *served* requirement at node fan-out and to the Vmin timeline
    /// samples -- never to the cache or the probe journal, so the
    /// characterization record stays aging-free.  The default 0 keeps
    /// every published byte unchanged.
    double aging_mv_per_epoch = 0.0;
    /// `timeline.json` artifact endpoint (empty: not published).  Written
    /// with the snapshot's temp+rename discipline after each epoch seal.
    std::string timeline_path;
};

/// Aggregated view of one cohort the state snapshot exposes.
struct cohort_state {
    cohort_key key;
    std::uint64_t members = 0; ///< nodes in this cohort
    std::uint64_t probes = 0;  ///< campaigns that requested it (hits + runs)
    bool probed = false;       ///< `last` holds a real result
    /// Probe never resolved within the retry/re-plan budget: the cohort
    /// is quarantined and served at the nominal bin cap until a later
    /// campaign resolves it.  Degraded results are never cached or
    /// journaled, so the retry recurs deterministically.
    bool degraded = false;
    probe_result last;
};

/// What one `run_campaign` call did.
struct campaign_outcome {
    std::uint64_t probes = 0;     ///< cohort probes requested (= cohorts)
    std::uint64_t cache_hits = 0; ///< served from the cache
    std::uint64_t executed = 0;   ///< ran through the engine
    std::uint64_t replanned = 0;  ///< probes that needed re-plan rounds
    std::uint64_t degraded = 0;   ///< cohorts quarantined this campaign
    execution_stats stats; ///< merged engine runs + simulated rig faults
};

class fleet_service {
public:
    /// Warms the cache from `config.journal_path` if the file exists.
    /// `probe` runs cache-missing cohorts; it may be empty for a pure
    /// query/replay service, but `run_campaign` then requires every
    /// cohort to hit the cache.
    fleet_service(fleet_spec spec, fleet_service_config config,
                  probe_fn probe = {});

    /// One characterization campaign over the whole fleet at a supply
    /// offset of `sweep_mv` from each cohort's operating point.
    campaign_outcome run_campaign(std::int64_t sweep_mv = 0);

    // --- query API ------------------------------------------------------
    /// Deterministic fleet-state bytes: a final `--status` snapshot
    /// (status.hpp schema, parseable by `gbreport status`) extended with
    /// a "fleet" object.  Bitwise identical at any GB_JOBS.
    [[nodiscard]] std::string state_snapshot() const;
    /// Atomically publish `state_snapshot()` to the configured state
    /// path (temp + rename; false on I/O error or when unconfigured).
    bool publish_state() const;

    [[nodiscard]] const fleet_spec& spec() const { return spec_; }
    [[nodiscard]] const probe_cache& cache() const { return cache_; }
    [[nodiscard]] const std::vector<cohort_state>& cohorts() const {
        return cohorts_;
    }
    /// Nodes per binned voltage class (mV), rebuilt each campaign.
    [[nodiscard]] const std::map<std::int64_t, std::uint64_t>& bins() const {
        return bins_;
    }
    [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
    [[nodiscard]] std::uint64_t node_count() const {
        return spec_.node_count();
    }
    /// Cache entries restored from the journal at construction.
    [[nodiscard]] std::uint64_t restored() const { return restored_; }
    /// Torn-tail journal bytes truncated by the warm path's self-heal.
    [[nodiscard]] std::uint64_t healed_bytes() const { return healed_bytes_; }
    /// Cohorts currently quarantined in degraded mode.
    [[nodiscard]] std::uint64_t degraded_cohorts() const;
    [[nodiscard]] double power_nominal_w() const { return power_nominal_w_; }
    [[nodiscard]] double power_binned_w() const { return power_binned_w_; }

    // --- observatory (timeline + alerts; null/empty when off) -----------
    /// Alert engine state (firing set, event history); null when the
    /// observatory is off or no rules are configured.
    [[nodiscard]] const alert_engine* alert_state() const {
        return alerts_.get();
    }
    /// `timeline.json` bytes (write_timeline_json over the configured
    /// recorder + alert state); empty when the observatory is off.
    [[nodiscard]] std::string timeline_snapshot() const;
    /// Atomically publish `timeline_snapshot()` to the configured
    /// timeline path (temp + rename; false when unconfigured).
    bool publish_timeline() const;

    // --- SDC integrity accounting (lifetime-local; metrics `integrity.*`
    // mirror these, the content-pure snapshot never includes them) -------
    /// Corruptions the armed sdc_plan has handed out.
    [[nodiscard]] std::uint64_t sdc_injected() const;
    /// Corruptions caught (outvoted dissents + stalemates + audit
    /// mismatches + blacklist-repair discoveries).
    [[nodiscard]] std::uint64_t sdc_detected() const { return sdc_detected_; }
    /// Dissenting replicas outvoted at admission time.
    [[nodiscard]] std::uint64_t sdc_outvoted() const { return sdc_outvoted_; }
    /// Poisoned cache/journal entries overwritten with arbitrated truth.
    [[nodiscard]] std::uint64_t sdc_corrected() const {
        return sdc_corrected_;
    }
    /// Injected corruptions no defense has caught (yet).
    [[nodiscard]] std::uint64_t sdc_escaped() const;
    /// Cache hits re-verified by the audit sampler.
    [[nodiscard]] std::uint64_t audits() const { return audits_; }
    [[nodiscard]] std::uint64_t audit_mismatches() const {
        return audit_mismatches_;
    }
    /// Votes with no strict majority (cohort degrades conservatively).
    [[nodiscard]] std::uint64_t quorum_stalemates() const {
        return quorum_stalemates_;
    }
    /// Journal entries rewritten by audit or blacklist repair.
    [[nodiscard]] std::uint64_t repaired_entries() const {
        return repaired_entries_;
    }
    /// Logical replicas spent on redundancy (replicas, audits, repairs),
    /// one per simulated rig, not calls of the pure probe.
    [[nodiscard]] std::uint64_t replica_executions() const {
        return replica_executions_;
    }
    /// Per-rig dissent ledger (blacklist state, dissent totals).
    [[nodiscard]] const rig_reputation& reputation() const {
        return reputation_;
    }
    /// Simulated rig pool the quorum spreads over.
    [[nodiscard]] std::uint64_t rig_count() const { return effective_rigs_; }

    // --- per-cohort supervision ----------------------------------------
    /// The cohort's operating-point supervisor, created on first use
    /// with `config`/`governor` (later calls return the existing one;
    /// the reference stays valid for the service's lifetime).
    operating_point_supervisor& supervisor_for(
        const cohort_key& key, const supervisor_config& config = {},
        voltage_governor* governor = nullptr);
    /// One supervised epoch against the cohort's supervisor
    /// (run_supervised_epoch); the supervisor must already exist.
    supervised_epoch run_epoch(
        const cohort_key& key, const epoch_request& request,
        const std::function<epoch_result(const epoch_plan&)>& execute);
    [[nodiscard]] std::uint64_t supervised_cohorts() const {
        return supervised_.size();
    }
    [[nodiscard]] std::uint64_t supervised_epochs() const {
        return supervised_epochs_;
    }

private:
    struct supervised_cohort {
        std::unique_ptr<operating_point_supervisor> supervisor;
        std::uint64_t epochs = 0;
    };

    /// Position of `key` in the sorted `cohorts_`, or cohorts_.size()
    /// when this fleet has no such cohort.
    [[nodiscard]] std::size_t find_cohort(const cohort_key& key) const;
    /// Node fan-out of the current cohort results: rebuilds `bins_` and
    /// the two power sums (docs/FLEET.md "Fan-out").
    void fan_out();
    void warm_cache_from_journal();
    /// End-of-campaign observatory block: append the epoch's fixed-order
    /// sample list to the recorder and the journal (skipping whatever a
    /// previous lifetime already journaled), evaluate the alert rules,
    /// journal the transitions, and seal the epoch with a `tseal` record.
    void observe_epoch();
    /// Journal one observatory record (`tline`/`alert`/`tseal` payload)
    /// through the chaos `timeline_append` seam.  Observatory records
    /// consume journal serials like probe records but never fold into the
    /// integrity chain.
    void append_observatory_line(const std::string& payload);
    /// The epoch's crash-invariant sample list, in fixed series order:
    /// per-cohort Vmin (probed cohorts, sorted cohort order, aging
    /// applied), then the fleet scalars.
    [[nodiscard]] std::vector<std::pair<std::string, double>>
    observatory_samples() const;
    void append_probe_line(const cohort_key& key, std::int64_t sweep_mv,
                           std::uint64_t content, const probe_result& result,
                           const probe_ledger& ledger,
                           const std::vector<std::uint32_t>& rigs);
    /// One serial replica (audit / arbitration / repair) of the probe's
    /// `honest` value, drawing one SDC opportunity.
    [[nodiscard]] probe_result execute_replica(const probe_result& honest);
    [[nodiscard]] probe_request request_for(std::size_t cohort,
                                            std::int64_t sweep_mv,
                                            std::uint64_t content) const;
    /// Arbitrate `content` with a fresh quorum of replicas of its `honest`
    /// value on the standard rig assignment; returns false on a stalemate.
    /// `truth` and the provenance (the configured quorum's assigned rigs,
    /// so repaired bytes converge with a never-corrupted run's) come back
    /// through the out-params.
    [[nodiscard]] bool arbitrate(std::uint64_t content,
                                 const probe_result& honest, int replicas,
                                 probe_result& truth,
                                 std::vector<std::uint32_t>& rigs);
    /// The configured quorum's content-pure rig assignment (sorted,
    /// uniqued) -- the provenance every admission and repair records.
    [[nodiscard]] std::vector<std::uint32_t> assigned_rigs(
        std::uint64_t content) const;
    void audit_scheduled_hits(
        std::int64_t sweep_mv,
        const std::vector<std::pair<std::size_t, std::uint64_t>>& candidates,
        std::set<std::uint64_t>& newly_blacklisted, bool& journal_dirty);
    /// Re-execute every journaled probe whose vouching rigs are all
    /// blacklisted, walking the journal file in file order.
    void repair_blacklisted_entries(
        const std::set<std::uint64_t>& newly_blacklisted,
        bool& journal_dirty);
    /// Rewrite the whole journal with a recomputed hash chain, each probe
    /// record re-rendered from the file (identity, ledger) and the cache
    /// (current result and rigs); temp + rename, no chaos seams -- repair
    /// is not a persistence seam the recovery checker arms.
    void rewrite_journal();
    void charge_dissent(std::uint64_t rig,
                        std::set<std::uint64_t>& newly_blacklisted);
    /// Live (`running: true`) snapshot while a campaign's probes are in
    /// flight; scheduling-dependent by nature, like engine heartbeats.
    void publish_live(std::uint64_t pending) const;

    fleet_spec spec_;
    fleet_service_config config_;
    probe_fn probe_;
    probe_cache cache_;
    std::uint64_t restored_ = 0;
    std::uint64_t healed_bytes_ = 0;

    /// Sorted by key.
    std::vector<cohort_state> cohorts_;
    /// Node -> index into `cohorts_`.  A generated fleet keeps no per-node
    /// state: each node's slot comes from `derive_` and `slot_cohort_`
    /// maps the flat slot table onto `cohorts_`.  An explicit fleet keeps
    /// one index per listed node in `node_cohort_`.
    std::optional<node_derivation> derive_;
    std::vector<std::uint32_t> slot_cohort_;
    std::vector<std::uint32_t> node_cohort_;

    std::unique_ptr<campaign_journal> journal_;
    std::uint64_t journal_serial_ = 0; ///< next journal task index

    std::uint64_t epoch_ = 0;
    std::uint64_t probes_requested_ = 0; ///< lifetime cohort probes
    std::size_t trace_index_base_ = 0;   ///< unique task indices across runs
    /// Repeat requests for a content already requested this lifetime
    /// (the cache's requested bit) -- the only cache-hit notion that is
    /// identical before and after a crash/restart (restoration hits are
    /// lifetime-local and live in metrics only).
    std::uint64_t scheduled_hits_ = 0;
    /// Fault ledgers of every *resolved* probe, restored + this-life,
    /// folded in journal order -- the crash-invariant stats the snapshot
    /// reports.  Degraded probes' ledgers stay out (their fold order
    /// would depend on which lifetime ran them).
    execution_stats ledger_stats_;

    /// SDC defense state (all folded at serial points).
    std::uint64_t effective_rigs_ = 1;
    rig_reputation reputation_;
    std::uint64_t chain_ = chain_basis; ///< running journal chain hash
    /// Content of each cohort's most recent resolved probe, so repair can
    /// refresh `cohorts_[i].last` when its backing entry is rewritten.
    std::vector<std::uint64_t> cohort_last_content_;
    std::uint64_t sdc_detected_ = 0;
    std::uint64_t sdc_outvoted_ = 0;
    std::uint64_t sdc_corrected_ = 0;
    std::uint64_t audits_ = 0;
    std::uint64_t audit_mismatches_ = 0;
    std::uint64_t quorum_stalemates_ = 0;
    std::uint64_t repaired_entries_ = 0;
    std::uint64_t replica_executions_ = 0;
    std::map<std::int64_t, std::uint64_t> bins_;
    double power_nominal_w_ = 0.0;
    double power_binned_w_ = 0.0;

    /// Observatory state.  The alert engine exists whenever the timeline
    /// is configured (even rule-free, so the artifact's alert section is
    /// stable); the warm bookkeeping below is tracked per epoch so a
    /// restarted daemon replays journaled observatory records instead of
    /// re-appending them:
    ///   * `sealed_epochs_`  -- epochs whose `tseal` landed (skip whole
    ///     block on replay);
    ///   * `warm_tline_counts_` / `warm_alert_counts_` -- records already
    ///     journaled for a partial (unsealed) epoch, so only the suffix is
    ///     appended;
    ///   * `warm_epoch_ticks_` -- the tick a partial epoch's samples were
    ///     journaled at, reused so the retry lands on the same tick.
    std::unique_ptr<alert_engine> alerts_;
    std::set<std::uint64_t> sealed_epochs_;
    std::map<std::uint64_t, std::uint64_t> warm_tline_counts_;
    std::map<std::uint64_t, std::uint64_t> warm_alert_counts_;
    std::map<std::uint64_t, std::uint64_t> warm_epoch_ticks_;

    std::map<cohort_key, supervised_cohort> supervised_;
    std::uint64_t supervised_epochs_ = 0;

    struct {
        bool registered = false;
        counter_handle nodes;
        counter_handle probes_executed;
        counter_handle cache_hits;
        counter_handle restored;
        counter_handle healed_bytes;
        counter_handle replan_rounds;
        histogram_handle bin_mv;
        gauge_handle power_nominal_w;
        gauge_handle power_binned_w;
        gauge_handle degraded_cohorts;
        /// `integrity.*` gauges, registered only when the defenses are on
        /// (default metrics bytes stay unchanged).
        bool integrity = false;
        gauge_handle sdc_injected;
        gauge_handle sdc_detected;
        gauge_handle sdc_outvoted;
        gauge_handle sdc_corrected;
        gauge_handle sdc_escaped;
        gauge_handle audits;
        gauge_handle audit_mismatches;
        gauge_handle dissents;
        gauge_handle blacklisted_rigs;
        gauge_handle quorum_stalemates;
        gauge_handle repaired_entries;
        gauge_handle replica_executions;
    } mh_;
};

/// Parse one fleet journal probe payload (the part after the `task=N `
/// prefix) back into its probe identity, result and fault ledger.  Every
/// field is required (`retries= wdt= crash= pwr= xhst= down=` included);
/// the ` rigs=` provenance and ` chain=` link are checked by the warm path,
/// not here.  Exposed for tests and external tailers; returns false on
/// anything malformed.
[[nodiscard]] bool parse_probe_line(std::string_view payload,
                                    cohort_key& key, std::int64_t& sweep_mv,
                                    std::uint64_t& content,
                                    probe_result& result,
                                    probe_ledger& ledger);

} // namespace gb::fleet
