#include "fleet/service.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <utility>

#include "harness/chaos/chaos.hpp"
#include "harness/fault_injection.hpp"
#include "harness/publish.hpp"
#include "harness/status.hpp"
#include "harness/trace/metrics.hpp"
#include "harness/trace/trace.hpp"
#include "util/contracts.hpp"
#include "util/wire.hpp"

namespace gb::fleet {

namespace {

/// Bounds on the fan-out's flat tables: corner x class x operating-point
/// slots of a generated fleet, and voltage classes spanned by the served
/// requirements (8 MiB of counts at most).
constexpr std::size_t max_cohort_slots = std::size_t{1} << 20;
constexpr std::size_t max_voltage_classes = std::size_t{1} << 20;

/// Fault-draw key for re-plan round `round` of a probe: round 0 draws
/// exactly where a single-round plan would, later rounds re-key so the
/// retry sees fresh draws.  A pure function of content, never of engine
/// task indices -- what keeps faulty campaigns worker-invariant and makes
/// a probe's ledger a property of the probe itself.
std::uint64_t replan_key(std::uint64_t content, int round) {
    return round == 0 ? content
                      : derive_task_seed(content,
                                         static_cast<std::uint64_t>(round));
}

void fold_ledger(execution_stats& stats, const probe_ledger& ledger) {
    stats.retries += ledger.retries;
    stats.watchdog_timeouts += ledger.watchdog_timeouts;
    stats.board_crashes += ledger.board_crashes;
    stats.power_switch_failures += ledger.power_switch_failures;
    stats.aborted_rig += ledger.exhausted;
    stats.rig_downtime_s += ledger.downtime_s;
}

bool same_result(const probe_result& a, const probe_result& b) {
    return a.requirement_mv == b.requirement_mv &&
           a.power_nominal_w == b.power_nominal_w &&
           a.power_point_w == b.power_point_w && a.bucket == b.bucket;
}

/// Fault-draw domain for replicas beyond the first, so redundant
/// executions see independent rig faults without disturbing replica 0's
/// draws (which must stay byte-identical to the quorum=1 schedule).
constexpr std::uint64_t replica_fault_domain = 0x7265706c2d666c74ULL;

/// Charge one probe's rig-fault draws for `round` to `ledger`, replica by
/// replica (charge_attempts); true when every replica found a healthy
/// attempt.  Replica 0 draws exactly as a quorum=1 plan would; the others
/// re-key into their own streams.  The walk stops at the first exhausted
/// replica: one exhausted rig defers the whole vote.
bool plan_rig_faults(const fault_plan* faults, std::uint64_t content,
                     int round, int quorum, int attempts,
                     probe_ledger& ledger) {
    if (faults == nullptr) {
        return true;
    }
    const std::uint64_t round_key = replan_key(content, round);
    for (int r = 0; r < quorum; ++r) {
        const std::uint64_t fault_key =
            r == 0 ? round_key
                   : derive_task_seed(round_key,
                                      replica_fault_domain +
                                          static_cast<std::uint64_t>(r));
        if (charge_attempts(*faults, fault_key, attempts, ledger) ==
            attempts) {
            return false;
        }
    }
    return true;
}

/// What a Byzantine rig's silent corruption does to one probe result.
/// The weak-cell sites land on the outcome bucket (the fleet probe's
/// cell-count-like integer channel); the others on the named scalars.
probe_result apply_sdc(const probe_result& clean,
                       const sdc_corruption& corruption) {
    probe_result result = clean;
    switch (corruption.site) {
    case sdc_site::vmin_flip:
        result.requirement_mv = sdc_plan::corrupt_vmin(
            result.requirement_mv, corruption.param);
        break;
    case sdc_site::weak_drop:
    case sdc_site::weak_phantom:
        result.bucket = static_cast<int>(sdc_plan::corrupt_weak_cells(
            result.bucket, corruption.site, corruption.param));
        break;
    case sdc_site::power_scale:
        result.power_point_w =
            sdc_plan::corrupt_power(result.power_point_w, corruption.param);
        break;
    }
    return result;
}

// --- journal record formats (util/wire.hpp record codec) ---------------

/// A probe record's fields; the ` chain=` link that closes its payload is
/// computed over them (chained_probe_payload).
struct probe_format {
    static constexpr std::string_view kind = "probe";
    static void fields(auto& field, auto& record) {
        field("corner", named(record.key.corner, process_corner_count));
        field("class", record.key.workload_class);
        field("op", record.key.operating_point);
        field("variant", record.key.variant);
        field("sweep", record.sweep_mv);
        field("content", as_hex(record.content));
        field("req", record.result.requirement_mv);
        field("pnom", record.result.power_nominal_w);
        field("ppt", record.result.power_point_w);
        field("bucket", record.result.bucket);
        field("retries", record.ledger.retries);
        field("wdt", record.ledger.watchdog_timeouts);
        field("crash", record.ledger.board_crashes);
        field("pwr", record.ledger.power_switch_failures);
        field("xhst", record.ledger.exhausted);
        field("down", record.ledger.downtime_s);
        field("rigs", joined(record.rigs, ':'));
    }
};

/// The probe fields before the ` rigs=` provenance: identity, result and
/// ledger.
constexpr std::size_t probe_fields_before_rigs = 16;

/// The link closing a probe payload, one space after the fields it
/// covers.
struct chain_format {
    static constexpr std::string_view kind = "";
    static void fields(auto& field, auto& chain) {
        field("chain", as_hex(chain));
    }
};

constexpr std::string_view chain_field = " chain=";

/// The observatory's journal records: one struct for all three formats,
/// each naming the fields it writes.
struct observatory_record {
    std::uint64_t epoch = 0;
    alert_event event;         ///< alert; tline: series, tick, value
    std::uint64_t samples = 0; ///< tseal
    std::uint64_t events = 0;  ///< tseal
};

/// One timeline sample.
struct tline_format {
    static constexpr std::string_view kind = "tline";
    static void fields(auto& field, auto& record) {
        field("epoch", record.epoch);
        field("series", record.event.series);
        field("tick", record.event.tick);
        field("value", record.event.value);
    }
};

/// One alert transition.
struct alert_format {
    static constexpr std::string_view kind = "alert";
    static void fields(auto& field, auto& record) {
        field("epoch", record.epoch);
        field("rule", record.event.rule);
        field("series", record.event.series);
        field("state", flag(record.event.firing, "resolved", "firing"));
        field("tick", record.event.tick);
        field("value", record.event.value);
    }
};

/// The seal closing an epoch's block, with its record counts.
struct tseal_format {
    static constexpr std::string_view kind = "tseal";
    static void fields(auto& field, auto& record) {
        field("epoch", record.epoch);
        field("samples", record.samples);
        field("events", record.events);
    }
};

/// `line` of a validated journal as a probe record; false for
/// observatory records.
bool trusted_probe(const journal_line& line, probe_record& probe) {
    GB_ENSURES(line.framed);
    return parse_probe_line(line.payload, probe);
}

} // namespace

std::string chained_probe_payload(const probe_record& probe,
                                  std::uint64_t& chain) {
    // The link comes LAST so it covers everything before it, provenance
    // included.
    std::string line = render_record<probe_format>(probe);
    chain = chain_next(chain, line);
    line += ' ';
    line += render_record<chain_format>(chain);
    return line;
}

bool parse_probe_line(std::string_view payload, probe_record& probe) {
    const std::size_t chain_at = payload.rfind(chain_field);
    std::uint64_t chain = 0;
    return chain_at != std::string_view::npos &&
           parse_record<chain_format>(payload.substr(chain_at + 1), chain) &&
           parse_record<probe_format>(payload.substr(0, chain_at), probe);
}

fleet_service::fleet_service(fleet_spec spec, fleet_service_config config,
                             probe_fn probe)
    : spec_(std::move(spec)),
      config_(std::move(config)),
      probe_(std::move(probe)) {
    GB_EXPECTS(std::isfinite(spec_.node_jitter_mv));
    GB_EXPECTS(std::isfinite(spec_.bin_step_mv) && spec_.bin_step_mv > 0.0);
    GB_EXPECTS(std::isfinite(spec_.bin_cap_mv));
    // Cohort census: one pass over the fleet, sorted-key cohort order
    // ever after.  O(nodes) once; campaigns reuse it.
    const auto add_cohort = [&](const cohort_key& key, std::uint64_t count) {
        cohort_state state;
        state.key = key;
        state.members = count;
        cohorts_.push_back(state);
    };
    const std::uint64_t nodes = spec_.node_count();
    if (spec_.explicit_nodes.empty()) {
        // Members count into the flat slot table, whose slot order is the
        // key order; compacting its occupied slots yields `cohorts_`.
        const node_derivation& derive = derive_.emplace(spec_);
        GB_EXPECTS(derive.slots() <= max_cohort_slots);
        std::vector<std::uint64_t> members(derive.slots(), 0);
        for (std::uint64_t id = 0; id < nodes; ++id) {
            ++members[derive.slot(id)];
        }
        slot_cohort_.assign(derive.slots(), 0);
        for (std::size_t slot = 0; slot < members.size(); ++slot) {
            if (members[slot] > 0) {
                slot_cohort_[slot] =
                    static_cast<std::uint32_t>(cohorts_.size());
                add_cohort(derive.key(slot), members[slot]);
            }
        }
    } else {
        std::vector<cohort_key> keys;
        keys.reserve(spec_.explicit_nodes.size());
        for (const fleet_node& node : spec_.explicit_nodes) {
            keys.push_back(node.cohort);
        }
        std::sort(keys.begin(), keys.end());
        for (auto run = keys.begin(); run != keys.end();) {
            const auto end = std::upper_bound(run, keys.end(), *run);
            add_cohort(*run, static_cast<std::uint64_t>(end - run));
            run = end;
        }
        GB_EXPECTS(cohorts_.size() <= UINT32_MAX);
        node_cohort_.reserve(spec_.explicit_nodes.size());
        for (const fleet_node& node : spec_.explicit_nodes) {
            node_cohort_.push_back(
                static_cast<std::uint32_t>(find_cohort(node.cohort)));
        }
    }
    GB_EXPECTS(config_.integrity.quorum >= 1);
    effective_rigs_ = config_.integrity.rigs != 0
                          ? std::max<std::uint64_t>(
                                config_.integrity.rigs,
                                static_cast<std::uint64_t>(
                                    config_.integrity.quorum))
                          : std::max<std::uint64_t>(
                                static_cast<std::uint64_t>(
                                    config_.integrity.quorum),
                                8);
    rig_reputation_config reputation;
    reputation.blacklist_threshold =
        std::max<std::uint64_t>(1, config_.integrity.blacklist_threshold);
    reputation_ = rig_reputation(reputation);
    // A crash between a publish_atomic temp write and its rename (state,
    // timeline, or a repair rewrite of the journal) leaves a stale `.tmp`
    // sibling: dead bytes, never to be renamed.
    for (const std::string& path : {config_.state_path, config_.timeline_path,
                                    config_.journal_path}) {
        if (!path.empty()) {
            std::error_code ec;
            std::filesystem::remove(path + ".tmp", ec);
        }
    }
    if (config_.timeline != nullptr) {
        // The engine exists even rule-free so the timeline artifact's
        // alert section stays stable; it must exist before the journal
        // warm so replayed `alert` records restore its firing state.
        alerts_ = std::make_unique<alert_engine>(config_.alerts);
    }
    if (!config_.journal_path.empty()) {
        warm_cache_from_journal();
        try {
            journal_ =
                std::make_unique<campaign_journal>(config_.journal_path);
        } catch (const std::runtime_error& e) {
            throw fleet_journal_error(e.what());
        }
        journal_->set_chaos(config_.chaos);
    }
    if (config_.metrics != nullptr) {
        mh_.registered = true;
        mh_.nodes = config_.metrics->counter("fleet.chips");
        mh_.probes_executed =
            config_.metrics->counter("fleet.probes_executed");
        mh_.cache_hits = config_.metrics->counter("fleet.cache_hits");
        mh_.restored = config_.metrics->counter("fleet.restored");
        mh_.healed_bytes = config_.metrics->counter("fleet.healed_bytes");
        mh_.replan_rounds =
            config_.metrics->counter("fleet.replan_rounds");
        // Voltage-class bounds spanning the top of the binning range
        // ({880..980} under the default 10 mV step / 980 mV cap).
        std::vector<std::uint64_t> bounds;
        const auto cap = static_cast<std::int64_t>(spec_.bin_cap_mv);
        const auto step = static_cast<std::int64_t>(spec_.bin_step_mv);
        for (int i = 5; i >= 0; --i) {
            bounds.push_back(static_cast<std::uint64_t>(cap - 2 * step * i));
        }
        mh_.bin_mv =
            config_.metrics->histogram("fleet.bin_mv", std::move(bounds));
        mh_.power_nominal_w =
            config_.metrics->gauge("fleet.power_nominal_w");
        mh_.power_binned_w = config_.metrics->gauge("fleet.power_binned_w");
        mh_.degraded_cohorts =
            config_.metrics->gauge("fleet.degraded_cohorts");
        if (config_.integrity.enabled()) {
            mh_.integrity = true;
            const auto gauges = integrity_gauges();
            for (std::size_t g = 0; g < gauges.size(); ++g) {
                mh_.integrity_gauges[g] =
                    config_.metrics->gauge(gauges[g].first);
            }
        }
        if (restored_ > 0) {
            config_.metrics->add(0, mh_.restored, restored_);
        }
        if (healed_bytes_ > 0) {
            config_.metrics->add(0, mh_.healed_bytes, healed_bytes_);
        }
    }
}

std::size_t fleet_service::find_cohort(const cohort_key& key) const {
    const auto it = std::lower_bound(
        cohorts_.begin(), cohorts_.end(), key,
        [](const cohort_state& cohort, const cohort_key& wanted) {
            return cohort.key < wanted;
        });
    return it != cohorts_.end() && it->key == key
               ? static_cast<std::size_t>(it - cohorts_.begin())
               : cohorts_.size();
}

double fleet_service::served_requirement_mv(
    const cohort_state& cohort) const {
    // Synthetic aging widens the *served* requirement only -- the
    // cached/journaled characterization stays drift-free, so the
    // timeline's drift-slope rules watch the same signal the binning
    // serves.  The default 0 adds +0.0, which leaves every requirement
    // but -0.0 bitwise unchanged.
    return cohort.last.requirement_mv +
           config_.aging_mv_per_epoch * static_cast<double>(epoch_ - 1);
}

void fleet_service::fan_out() {
    // Per-cohort serving values (`served_requirement_mv`).  Degraded
    // cohorts serve the conservative answer: their nodes bin at the
    // nominal cap -- no exploitation without characterization -- and
    // contribute no measured power.
    struct serving {
        double served_mv = 0.0;
        double nominal_w = 0.0;
        double binned_w = 0.0;
        bool degraded = false;
    };
    std::vector<serving> serve(cohorts_.size());
    const double jitter = node_derivation::jitter_scale(spec_);
    const double step = spec_.bin_step_mv;
    std::uint64_t degraded_nodes = 0;
    double lowest = std::numeric_limits<double>::infinity();
    double highest = -lowest;
    for (std::size_t c = 0; c < cohorts_.size(); ++c) {
        const cohort_state& cohort = cohorts_[c];
        GB_EXPECTS(cohort.probed || cohort.degraded);
        if (cohort.degraded) {
            serve[c].degraded = true;
            degraded_nodes += cohort.members;
            continue;
        }
        const double served_mv = served_requirement_mv(cohort);
        GB_EXPECTS(std::isfinite(served_mv));
        serve[c] = {served_mv, cohort.last.power_nominal_w,
                    cohort.last.power_point_w, false};
        lowest = std::min(lowest, served_mv);
        highest = std::max(highest, served_mv + jitter);
    }

    // Integer class counts indexed by q = ceil(requirement / step).
    // A node's requirement is served + jitter with jitter in [0, scale];
    // FP add, divide and ceil are all monotone, so every q lies in
    // [ceil(lowest / step), ceil(highest / step)] exactly.
    std::vector<std::uint64_t> counts;
    std::int64_t q_base = 0;
    if (highest >= lowest) {
        const double q_lo = std::ceil(lowest / step);
        const double q_hi = std::ceil(highest / step);
        // Within 2^53 every q converts to and from int64 exactly.
        GB_EXPECTS(std::abs(q_lo) <= 0x1.0p53 && std::abs(q_hi) <= 0x1.0p53);
        GB_EXPECTS(q_hi - q_lo < static_cast<double>(max_voltage_classes));
        q_base = static_cast<std::int64_t>(q_lo);
        counts.assign(static_cast<std::size_t>(q_hi - q_lo) + 1, 0);
    }

    // One loop body in node-id order, fed by the derivation (generated
    // fleets) or the node list: the power sums keep their node-order
    // operand sequence (a fixed floating-point accumulation order, like
    // every other sum); the class counts are integers.
    double nominal_w = 0.0;
    double binned_w = 0.0;
    const auto visit = [&](std::size_t cohort, std::uint64_t seed) {
        const serving& node = serve[cohort];
        if (node.degraded) {
            return;
        }
        const double requirement =
            node.served_mv + node_derivation::jitter_mv(seed, jitter);
        const auto q =
            static_cast<std::int64_t>(std::ceil(requirement / step));
        ++counts[static_cast<std::size_t>(q - q_base)];
        nominal_w += node.nominal_w;
        binned_w += node.binned_w;
    };
    const std::uint64_t nodes = spec_.node_count();
    if (derive_) {
        const node_derivation& derive = *derive_;
        for (std::uint64_t id = 0; id < nodes; ++id) {
            visit(slot_cohort_[derive.slot(id)], derive.seed(id));
        }
    } else {
        for (std::uint64_t id = 0; id < nodes; ++id) {
            visit(node_cohort_[id], spec_.explicit_nodes[id].seed);
        }
    }
    power_nominal_w_ = nominal_w;
    power_binned_w_ = binned_w;

    bins_.clear();
    if (degraded_nodes > 0) {
        bins_[static_cast<std::int64_t>(spec_.bin_cap_mv)] += degraded_nodes;
    }
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] > 0) {
            const double q =
                static_cast<double>(q_base + static_cast<std::int64_t>(i));
            bins_[std::llround(class_voltage_mv(spec_, q))] += counts[i];
        }
    }
    if (mh_.registered) {
        for (const auto& [mv, count] : bins_) {
            config_.metrics->observe(0, mh_.bin_mv,
                                     static_cast<std::uint64_t>(mv), count);
        }
    }
}

std::uint64_t fleet_service::degraded_cohorts() const {
    std::uint64_t count = 0;
    for (const cohort_state& cohort : cohorts_) {
        count += cohort.degraded ? 1 : 0;
    }
    return count;
}

void fleet_service::warm_cache_from_journal() {
    // The writer appends whole '\n'-terminated lines under a mutex and
    // commits serially in sorted cohort order, so a healthy journal obeys
    // invariants this visitor enforces strictly: serials are 0,1,2,...;
    // cohort keys strictly increase within each run of equal sweep; no
    // content appears twice; observatory blocks seal epochs 1..k in order
    // and leave at most epoch k+1 open.  The ONLY damage this writer's
    // own crash can cause is a torn final line with no trailing newline
    // -- that tail is self-healed (truncated, counted in
    // `healed_bytes_`); everything else is a foreign edit or a bug and
    // raises `fleet_journal_error` rather than silently re-executing
    // probes against bad state.
    bool have_prev = false;
    std::int64_t prev_sweep = 0;
    cohort_key prev_key{};
    std::ifstream in(config_.journal_path, std::ios::binary);
    for_each_journal_line(in, [&](const journal_line& line) {
        const auto reject = [&](const std::string& reason) {
            throw fleet_journal_error("fleet journal " +
                                      config_.journal_path + ":" +
                                      std::to_string(line.lineno) + ": " +
                                      reason);
        };
        if (line.torn) {
            healed_bytes_ += line.text.size();
            std::error_code ec;
            std::filesystem::resize_file(config_.journal_path, line.offset,
                                         ec);
            if (ec) {
                reject("could not truncate torn tail: " + ec.message());
            }
            return;
        }
        if (config_.chaos != nullptr &&
            config_.chaos->on_cache_warm_line()) {
            config_.chaos->kill(chaos_site::cache_warm);
        }
        if (!line.framed) {
            reject("not a journal record");
        }
        if (line.task_index != journal_serial_) {
            reject("task serial " + std::to_string(line.task_index) +
                   " out of sequence (expected " +
                   std::to_string(journal_serial_) + ")");
        }
        const std::string_view payload = line.payload;
        // Observatory records (`tline` samples, `alert` transitions and
        // the `tseal` closing an epoch's block) consume journal serials
        // like probe records but carry no chain link and never fold into
        // the probe chain.  They are parsed strictly, counted into the
        // open epoch (so a restarted daemon appends only the missing
        // suffix of a partial block) and replayed into the configured
        // recorder and alert engine.
        const std::string_view kind = payload.substr(0, payload.find(' '));
        if (kind == tline_format::kind || kind == alert_format::kind ||
            kind == tseal_format::kind) {
            observatory_record record;
            const record_read read =
                kind == tline_format::kind
                    ? read_record<tline_format>(payload, record)
                : kind == alert_format::kind
                    ? read_record<alert_format>(payload, record)
                    : read_record<tseal_format>(payload, record);
            if (read.fields == 0) { // the epoch leads every format
                reject("unparseable observatory record");
            }
            if (record.epoch <= sealed_through_) {
                reject("observatory record after its epoch seal");
            }
            if (record.epoch != open_.epoch) {
                reject("observatory record out of epoch order");
            }
            if (kind == tline_format::kind) {
                if (!read.exact) {
                    reject("unparseable timeline record");
                }
                ++open_.tlines;
                open_.tick = record.event.tick;
                if (config_.timeline != nullptr) {
                    config_.timeline->append(record.event.series,
                                             record.event.tick,
                                             record.event.value);
                }
            } else if (kind == alert_format::kind) {
                if (!read.exact) {
                    reject("unparseable alert record");
                }
                ++open_.alerts;
                if (config_.timeline != nullptr) {
                    config_.timeline->observe_tick(record.event.tick);
                }
                if (alerts_ != nullptr) {
                    alerts_->replay(record.event);
                }
            } else {
                if (!read.exact) {
                    reject("unparseable epoch seal");
                }
                if (record.samples != open_.tlines ||
                    record.events != open_.alerts) {
                    reject("epoch seal counts disagree with the records "
                           "before it");
                }
                sealed_through_ = record.epoch;
                open_ = open_epoch{record.epoch + 1};
            }
            ++journal_serial_;
            // The block separates campaigns; the cohort-order invariant
            // restarts with the next probe run.
            have_prev = false;
            return;
        }
        // A probe record's fields are read first, then the ` chain=` link
        // closing its payload, which folds the previous record's chain
        // value over the bytes before it -- an in-place edit anywhere
        // breaks every later link, which a torn-tail heal can never
        // excuse -- and last the ` rigs=` provenance the link covers.
        const std::size_t chain_at = payload.rfind(chain_field);
        const std::string_view fields = payload.substr(0, chain_at);
        probe_record probe;
        const record_read read = read_record<probe_format>(fields, probe);
        if (read.fields < probe_fields_before_rigs) {
            reject("unparseable probe record");
        }
        if (chain_at == std::string_view::npos) {
            reject("missing chain hash");
        }
        std::uint64_t recorded = 0;
        if (!parse_record<chain_format>(payload.substr(chain_at + 1),
                                        recorded)) {
            reject("unparseable chain hash");
        }
        const std::uint64_t expected = chain_next(chain_, fields);
        if (recorded != expected) {
            reject("chain hash mismatch (in-place corruption upstream or "
                   "on this record)");
        }
        chain_ = expected;
        if (!read.exact) {
            reject(read.fields == probe_fields_before_rigs
                       ? "unparseable rigs provenance"
                       : "unparseable probe record");
        }
        if (find_cohort(probe.key) == cohorts_.size()) {
            reject("probe for a cohort outside this fleet");
        }
        // The cache holds exactly the records read so far.
        if (const probe_result* duplicate = cache_.peek(probe.content)) {
            reject(same_result(*duplicate, probe.result)
                       ? "duplicate entry for content " +
                             format_hex(probe.content)
                       : "contradictory re-execution of content " +
                             format_hex(probe.content));
        }
        if (have_prev && probe.sweep_mv == prev_sweep &&
            !(prev_key < probe.key)) {
            reject("cohort order regressed within sweep " +
                   std::to_string(probe.sweep_mv));
        }
        prev_sweep = probe.sweep_mv;
        prev_key = probe.key;
        have_prev = true;
        ++journal_serial_;
        cache_.insert(probe.content, probe.result, probe.rigs);
        // Restored ledgers fold in journal order -- the exact order the
        // unfaulted run folds them at commit -- so the double-summed
        // downtime converges bitwise across a crash/restart.
        fold_ledger(ledger_stats_, probe.ledger);
        ++restored_;
    });
}

void fleet_service::append_observatory_line(const std::string& payload) {
    if (journal_) { // memory-only observatory: nothing to replay on restart
        journal_->append(journal_serial_++, payload, nullptr,
                         chaos_site::timeline_append);
    }
}

std::uint64_t fleet_service::sdc_injected() const {
    return config_.integrity.sdc != nullptr
               ? config_.integrity.sdc->injected()
               : 0;
}

std::uint64_t fleet_service::sdc_escaped() const {
    const std::uint64_t injected = sdc_injected();
    return injected > sdc_detected_ ? injected - sdc_detected_ : 0;
}

std::array<std::pair<std::string_view, std::uint64_t>,
           fleet_service::integrity_gauge_count>
fleet_service::integrity_gauges() const {
    return {{{"integrity.sdc_injected", sdc_injected()},
             {"integrity.sdc_detected", sdc_detected_},
             {"integrity.sdc_outvoted", sdc_outvoted_},
             {"integrity.sdc_corrected", sdc_corrected_},
             {"integrity.sdc_escaped", sdc_escaped()},
             {"integrity.audits", audits_},
             {"integrity.audit_mismatches", audit_mismatches_},
             {"integrity.dissents", reputation_.dissents()},
             {"integrity.blacklisted_rigs", reputation_.blacklisted_count()},
             {"integrity.quorum_stalemates", quorum_stalemates_},
             {"integrity.repaired_entries", repaired_entries_},
             {"integrity.replica_executions", replica_executions_}}};
}

probe_request fleet_service::request_for(std::size_t cohort,
                                         std::int64_t sweep_mv,
                                         std::uint64_t content) const {
    probe_request request;
    request.cohort = cohorts_[cohort].key;
    request.sweep_mv = sweep_mv;
    request.content = content;
    request.seed = derive_task_seed(spec_.seed, content);
    request.members = cohorts_[cohort].members;
    return request;
}

probe_result fleet_service::execute_replica(const probe_result& honest) {
    // One serial replica for audits, arbitration and repair.  No rig
    // faults here: the loud failure modes already ran their course when
    // the probe first resolved, and a re-execution's value is what the
    // defense needs -- only the silent corruption stream still applies.
    ++replica_executions_;
    if (config_.integrity.sdc != nullptr) {
        if (const auto decision = config_.integrity.sdc->on_execution()) {
            return apply_sdc(honest, *decision);
        }
    }
    return honest;
}

void fleet_service::charge_dissent(
    std::uint64_t rig, std::set<std::uint64_t>& newly_blacklisted) {
    if (reputation_.record_dissent(rig)) {
        newly_blacklisted.insert(rig);
    }
}

std::vector<std::uint32_t> fleet_service::assigned_rigs(
    std::uint64_t content) const {
    // The configured quorum's rig assignment, sorted and uniqued.  A pure
    // function of the content (rig_for is round-free), so the journal's
    // provenance field -- and through it the chain hash -- is bitwise
    // identical whether the admission was unanimous, outvoted a dissenting
    // rig, or was repaired after the fact.  Dissent itself is recorded in
    // the reputation ledger and the integrity metrics, never in the
    // journal bytes.
    const int quorum = std::max(1, config_.integrity.quorum);
    std::vector<std::uint32_t> rigs;
    rigs.reserve(static_cast<std::size_t>(quorum));
    for (int r = 0; r < quorum; ++r) {
        rigs.push_back(static_cast<std::uint32_t>(
            rig_for(spec_.seed, content, r, effective_rigs_)));
    }
    std::sort(rigs.begin(), rigs.end());
    rigs.erase(std::unique(rigs.begin(), rigs.end()), rigs.end());
    return rigs;
}

bool fleet_service::arbitrate(std::uint64_t content,
                              const probe_result& honest, int replicas,
                              probe_result& truth,
                              std::vector<std::uint32_t>& rigs) {
    GB_EXPECTS(replicas >= 1);
    std::vector<probe_result> votes;
    votes.reserve(static_cast<std::size_t>(replicas));
    for (int r = 0; r < replicas; ++r) {
        votes.push_back(execute_replica(honest));
    }
    const quorum_tally tally =
        vote(votes.size(), [&](std::size_t a, std::size_t b) {
            return same_result(votes[a], votes[b]);
        });
    if (!tally.decided) {
        ++quorum_stalemates_;
        return false;
    }
    truth = votes[tally.winner];
    // Provenance is the configured quorum's content-pure rig assignment
    // (not the agreeing subset), so a repaired record carries exactly the
    // rigs a never-corrupted run would have recorded -- the
    // bitwise-convergence contract.
    rigs = assigned_rigs(content);
    return true;
}

void fleet_service::repair_entry(std::size_t cohort, std::uint64_t content,
                                 const probe_result& truth,
                                 const std::vector<std::uint32_t>& rigs,
                                 bool& journal_dirty) {
    cache_.insert(content, truth, rigs);
    if (cohorts_[cohort].last_content == content) {
        cohorts_[cohort].last = truth;
    }
    if (journal_) {
        // Each cached content is journaled exactly once: the rewrite
        // re-renders its record from the repaired entry.
        ++repaired_entries_;
        journal_dirty = true;
    }
}

void fleet_service::audit_scheduled_hits(
    std::int64_t sweep_mv,
    const std::vector<std::pair<std::size_t, std::uint64_t>>& candidates,
    std::set<std::uint64_t>& newly_blacklisted, bool& journal_dirty) {
    const int quorum = std::max(1, config_.integrity.quorum);
    for (const auto& [cohort_idx, content] : candidates) {
        ++audits_;
        const probe_result* cached = cache_.peek(content);
        if (cached == nullptr) {
            continue; // unreachable: an audited hit was just served
        }
        // One probe execution serves the audit replica and, on a
        // mismatch, every arbiter.
        const probe_result honest =
            probe_(request_for(cohort_idx, sweep_mv, content));
        const probe_result observed = execute_replica(honest);
        if (same_result(observed, *cached)) {
            continue;
        }
        // The audit replica and the cache disagree; neither is trusted.
        // Arbitrate with a fresh odd quorum on the standard assignment.
        ++audit_mismatches_;
        ++sdc_detected_;
        probe_result truth;
        std::vector<std::uint32_t> rigs;
        const int arbiters = std::max(3, quorum | 1);
        if (!arbitrate(content, honest, arbiters, truth, rigs)) {
            continue; // stalemate: leave the cache alone, counted above
        }
        if (!same_result(truth, *cached)) {
            // The cache was poisoned: repair it, refresh the cohort, and
            // charge every rig that vouched for the bad value.
            ++sdc_corrected_;
            std::vector<std::uint32_t> charged;
            if (const auto* provenance = cache_.provenance(content)) {
                charged = *provenance;
            }
            repair_entry(cohort_idx, content, truth, rigs, journal_dirty);
            for (const std::uint32_t rig : charged) {
                charge_dissent(rig, newly_blacklisted);
            }
        } else {
            // The cache was right; the audit replica itself lied.
            charge_dissent(rig_for(spec_.seed, content, quorum,
                                   effective_rigs_),
                           newly_blacklisted);
        }
    }
}

void fleet_service::repair_blacklisted_entries(
    const std::set<std::uint64_t>& newly_blacklisted, bool& journal_dirty) {
    if (newly_blacklisted.empty() || !journal_) {
        return;
    }
    // The journaled probes in file order -- the order that fixes the SDC
    // draws of the re-executions below.  The cache holds each journaled
    // content's current result and vouching rigs.
    const int quorum = std::max(1, config_.integrity.quorum);
    std::ifstream in(config_.journal_path, std::ios::binary);
    for_each_journal_line(in, [&](const journal_line& line) {
        probe_record probe;
        if (!trusted_probe(line, probe)) {
            return;
        }
        const std::vector<std::uint32_t> vouchers =
            *cache_.provenance(probe.content);
        if (!std::all_of(vouchers.begin(), vouchers.end(),
                         [&](std::uint32_t rig) {
                             return reputation_.blacklisted(rig);
                         })) {
            return;
        }
        // Every voucher of this record is now blacklisted: nothing about
        // it is trustworthy, so execute the probe once, re-arbitrate a
        // full quorum of replicas over it, and repair.
        const std::size_t cohort_idx = find_cohort(probe.key);
        GB_ENSURES(cohort_idx < cohorts_.size()); // validated on warm
        const probe_result honest =
            probe_(request_for(cohort_idx, probe.sweep_mv, probe.content));
        probe_result truth;
        std::vector<std::uint32_t> rigs;
        if (!arbitrate(probe.content, honest, quorum, truth, rigs)) {
            return;
        }
        const bool value_changed =
            !same_result(truth, *cache_.peek(probe.content));
        if (value_changed) {
            ++sdc_detected_;
            ++sdc_corrected_;
        }
        if (value_changed || rigs != vouchers) {
            repair_entry(cohort_idx, probe.content, truth, rigs,
                         journal_dirty);
        }
    });
}

void fleet_service::rewrite_journal() {
    if (!journal_) {
        return;
    }
    // Re-render every probe record from the file (identity, sweep,
    // ledger) and the cache (current result and rigs) with a recomputed
    // chain, through an unarmed campaign_journal on a string stream;
    // observatory records ride along verbatim, outside the chain.  Then
    // swap atomically.  Not a chaos seam: repair rewrites are driven
    // by the deterministic audit/blacklist schedule, and the stale `.tmp`
    // a crash could leave is removed at construction.  (The fresh
    // campaign_journal restarts the chaos byte counter -- documented in
    // docs/ROBUSTNESS.md.)
    std::ostringstream bytes;
    campaign_journal rewrite(bytes);
    std::uint64_t chain = chain_basis;
    {
        std::ifstream in(config_.journal_path, std::ios::binary);
        for_each_journal_line(in, [&](const journal_line& line) {
            probe_record probe;
            if (!trusted_probe(line, probe)) {
                rewrite.append(line.task_index, line.payload);
                return;
            }
            probe.result = *cache_.peek(probe.content);
            probe.rigs = *cache_.provenance(probe.content);
            rewrite.append(line.task_index,
                           chained_probe_payload(probe, chain));
        });
    }
    GB_ENSURES(rewrite.appended() == journal_serial_);
    if (!publish_atomic(config_.journal_path, bytes.str())) {
        return; // keep appending to the old (still-linked) journal
    }
    chain_ = chain;
    journal_ = std::make_unique<campaign_journal>(config_.journal_path);
    journal_->set_chaos(config_.chaos);
}

void fleet_service::fill_ledger_counters(campaign_status& status) const {
    status.retries = ledger_stats_.retries;
    status.injected_faults = ledger_stats_.injected_faults();
    status.aborted_rig = ledger_stats_.aborted_rig;
    status.replayed = scheduled_hits_;
    status.rig_downtime_ms = static_cast<std::uint64_t>(
        std::llround(ledger_stats_.rig_downtime_s * 1000.0));
}

void fleet_service::publish_live(std::uint64_t pending) const {
    if (config_.state_path.empty()) {
        return;
    }
    campaign_status live;
    live.campaign = config_.campaign;
    live.running = true;
    live.tasks_total = pending;
    live.tasks_done = 0;
    fill_ledger_counters(live);
    live.workers = resolve_worker_count(config_.workers);
    live.worker_task.assign(static_cast<std::size_t>(live.workers), -1);
    live.wall_elapsed_s = 0.0;
    publish_status(config_.state_path, live);
}

campaign_outcome fleet_service::run_campaign(std::int64_t sweep_mv) {
    ++epoch_;
    campaign_outcome outcome;

    // 1. Cache consultation, serial, in sorted cohort order -- the hit
    // and miss counters are exact.
    struct pending_probe {
        std::size_t cohort = 0;
        std::uint64_t content = 0;
    };
    std::vector<pending_probe> pending;
    // Audit sample of this campaign's scheduled hits: every
    // `audit_stride`-th one gets re-verified after commit.  Keyed by the
    // crash-invariant scheduled-hit count, so a restarted daemon audits
    // the same hits a never-crashed one does.
    std::vector<std::pair<std::size_t, std::uint64_t>> audit_candidates;
    for (std::size_t c = 0; c < cohorts_.size(); ++c) {
        cohort_state& cohort = cohorts_[c];
        ++cohort.probes;
        const std::uint64_t content = probe_content(cohort.key, sweep_mv);
        if (const probe_result* cached = cache_.lookup(content)) {
            cohort.last = *cached;
            cohort.probed = true;
            cohort.degraded = false;
            cohort.last_content = content;
            ++outcome.cache_hits;
            // A hit on a content already requested this lifetime is a
            // *scheduled* hit -- the only hit notion identical before and
            // after a crash/restart.  A hit on journal-restored content
            // is lifetime-local and stays out of the snapshot counters.
            if (cache_.mark_requested(content)) {
                ++scheduled_hits_;
                if (config_.integrity.audit_stride > 0 &&
                    scheduled_hits_ % config_.integrity.audit_stride == 0) {
                    audit_candidates.emplace_back(c, content);
                }
            }
        } else {
            pending.push_back({c, content});
        }
    }
    outcome.probes = cohorts_.size();
    probes_requested_ += cohorts_.size();

    // 2. Engine runs, one per bounded-retry round.  Each probe's seed and
    // fault draws come from its content id, so the results -- and
    // everything downstream -- are invariant under the worker count.  A
    // probe that exhausts its attempts in one round is deferred to the
    // next with an exponential backoff charge; after the last round it
    // degrades its cohort instead of failing the campaign.
    const int quorum = std::max(1, config_.integrity.quorum);
    const auto replicas = static_cast<std::size_t>(quorum);
    std::vector<probe_result> honest(pending.size());
    std::vector<probe_ledger> ledgers(pending.size());
    std::vector<char> resolved(pending.size(), 0);
    // Corruption decisions are drawn HERE, serially in pending (sorted
    // cohort) order, one opportunity per (probe, replica) -- never inside
    // engine workers -- so a corrupted campaign stays bitwise invariant
    // under GB_JOBS.  A decision persists across re-plan rounds: the
    // Byzantine rig corrupts the replica whenever it finally resolves.
    std::vector<std::optional<sdc_corruption>> poison;
    if (config_.integrity.sdc != nullptr && !pending.empty()) {
        poison.resize(pending.size() * replicas);
        for (auto& decision : poison) {
            decision = config_.integrity.sdc->on_execution();
        }
    }
    // Replica r of probe j: the probe's one honest value as the rig
    // `rig_for(seed, content, r)` reports it.
    const auto replica = [&](std::size_t j, std::size_t r) {
        if (!poison.empty()) {
            if (const auto& decision = poison[j * replicas + r]) {
                return apply_sdc(honest[j], *decision);
            }
        }
        return honest[j];
    };
    if (!pending.empty()) {
        GB_EXPECTS(static_cast<bool>(probe_));
        publish_live(pending.size());
        execution_options engine_options;
        engine_options.workers = config_.workers;
        engine_options.base_seed = spec_.seed;
        engine_options.campaign = config_.campaign;
        engine_options.trace = config_.trace;
        engine_options.metrics = config_.metrics;
        // No engine status_path: the service publishes its own
        // content-pure snapshot.  No engine fault plan either -- rig
        // faults are planned serially below, keyed by content, so they
        // stay invariant under the worker count.
        const execution_engine engine(engine_options);
        const int attempts = std::max(1, config_.retry_budget + 1);
        const int last_round = std::max(0, config_.replan_rounds);

        std::vector<std::size_t> open(pending.size());
        std::iota(open.begin(), open.end(), std::size_t{0});
        for (int round = 0; round <= last_round && !open.empty(); ++round) {
            if (round > 0) {
                // Deferred probes sit out an exponentially growing
                // backoff, charged into their journaled downtime (virtual
                // seconds; no real sleeping).
                const double backoff =
                    replan_backoff_s(replan_backoff_base_s, round);
                for (const std::size_t j : open) {
                    ledgers[j].downtime_s += backoff;
                }
                if (round == 1) {
                    outcome.replanned = open.size();
                }
                if (mh_.registered) {
                    config_.metrics->add(0, mh_.replan_rounds, 1);
                }
            }
            // Rig faults, planned serially: draws are pure in (content,
            // round, replica, attempt).
            std::vector<std::size_t> runnable;
            for (const std::size_t j : open) {
                if (plan_rig_faults(config_.faults, pending[j].content,
                                    round, quorum, attempts, ledgers[j])) {
                    resolved[j] = 1;
                    runnable.push_back(j);
                }
            }
            // One task per resolved probe: the pure probe runs once and
            // the task reports replica 0's outcome bucket.
            const std::size_t first = trace_index_base_;
            const execution_stats stats = engine.run(
                runnable.size(),
                [&](const task_context& context) {
                    const std::size_t j = runnable[context.index - first];
                    honest[j] = probe_(request_for(
                        pending[j].cohort, sweep_mv, pending[j].content));
                    return replica(j, 0).bucket;
                },
                first);
            trace_index_base_ += runnable.size();
            outcome.stats.merge(stats);
            std::erase_if(open, [&](std::size_t j) { return resolved[j]; });
        }
    }

    // 3. Commit serially in sorted cohort order: cache inserts, the
    // deterministic probe journal, and quarantine for probes that never
    // resolved.  Degraded probes are not cached and not journaled, so
    // the next request for the same content retries them; their ledgers
    // stay out of the snapshot stats (which lifetime ran them would
    // otherwise leak into the fold order) but reach the outcome.
    std::uint64_t executed = 0;
    std::set<std::uint64_t> newly_blacklisted;
    bool journal_dirty = false;
    std::vector<probe_result> votes(replicas);
    for (std::size_t j = 0; j < pending.size(); ++j) {
        const pending_probe& entry = pending[j];
        cohort_state& cohort = cohorts_[entry.cohort];
        if (resolved[j] == 0) {
            cohort.probed = false;
            cohort.degraded = true;
            ++outcome.degraded;
            fold_ledger(outcome.stats, ledgers[j]);
            continue;
        }
        // Majority-of-N admission (quorum 1 is a one-vote tally).
        // Replica r executed on the content-pure rig `rig_for(seed,
        // content, r)`; the winning value is admitted with the assigned
        // quorum's rigs as provenance, dissenters are charged in the
        // reputation ledger, and a stalemate (possible only for even
        // quorums or multi-rig corruption) degrades the cohort
        // conservatively -- with no majority, nobody can be blamed and
        // nothing can be admitted.
        for (std::size_t r = 0; r < replicas; ++r) {
            votes[r] = replica(j, r);
        }
        const quorum_tally tally =
            vote(replicas, [&](std::size_t a, std::size_t b) {
                return same_result(votes[a], votes[b]);
            });
        replica_executions_ += replicas; // logical: one per rig
        if (!tally.decided) {
            ++quorum_stalemates_;
            ++sdc_detected_;
            cohort.probed = false;
            cohort.degraded = true;
            ++outcome.degraded;
            fold_ledger(outcome.stats, ledgers[j]);
            continue;
        }
        for (const std::size_t d : tally.dissenters) {
            ++sdc_outvoted_;
            ++sdc_detected_;
            charge_dissent(rig_for(spec_.seed, entry.content,
                                   static_cast<int>(d), effective_rigs_),
                           newly_blacklisted);
        }
        const probe_result& admitted = votes[tally.winner];
        std::vector<std::uint32_t> rigs = assigned_rigs(entry.content);
        cache_.insert(entry.content, admitted, rigs);
        cache_.mark_requested(entry.content);
        cohort.last = admitted;
        cohort.probed = true;
        cohort.degraded = false;
        cohort.last_content = entry.content;
        fold_ledger(ledger_stats_, ledgers[j]);
        fold_ledger(outcome.stats, ledgers[j]);
        if (journal_) {
            journal_->append(
                journal_serial_++,
                chained_probe_payload({cohort.key, sweep_mv, entry.content,
                                       admitted, ledgers[j], std::move(rigs)},
                                      chain_));
        }
        ++executed;
    }
    outcome.executed = executed;

    // 3b. Integrity sweeps, still serial: re-verify the audit sample of
    // this campaign's scheduled hits, then re-execute whatever a freshly
    // blacklisted rig sole-sourced.  Both run before the node fan-out so
    // a repaired value reaches this campaign's bins and snapshot.
    audit_scheduled_hits(sweep_mv, audit_candidates, newly_blacklisted,
                         journal_dirty);
    repair_blacklisted_entries(newly_blacklisted, journal_dirty);
    if (journal_dirty) {
        rewrite_journal();
    }

    // 4. Fan cohort results out to the whole fleet.
    fan_out();

    if (mh_.registered) {
        config_.metrics->add(0, mh_.nodes, spec_.node_count());
        config_.metrics->add(0, mh_.probes_executed, outcome.executed);
        config_.metrics->add(0, mh_.cache_hits, outcome.cache_hits);
        config_.metrics->set(0, mh_.power_nominal_w, epoch_,
                             power_nominal_w_);
        config_.metrics->set(0, mh_.power_binned_w, epoch_,
                             power_binned_w_);
        config_.metrics->set(0, mh_.degraded_cohorts, epoch_,
                             static_cast<double>(degraded_cohorts()));
        if (mh_.integrity) {
            const auto gauges = integrity_gauges();
            for (std::size_t g = 0; g < gauges.size(); ++g) {
                config_.metrics->set(0, mh_.integrity_gauges[g], epoch_,
                                     static_cast<double>(gauges[g].second));
            }
        }
    }
    if (config_.timeline != nullptr) {
        observe_epoch();
    }
    publish_state();
    return outcome;
}

std::vector<std::pair<std::string, double>>
fleet_service::observatory_samples() const {
    // The epoch's fixed-order sample list.  Every value here already
    // appears in (or derives from) the content-pure state snapshot, so
    // the block is crash-invariant by construction; lifetime-local
    // observables (physical cache hits) must stay out for the same reason
    // they stay out of the snapshot.
    std::vector<std::pair<std::string, double>> samples;
    samples.reserve(cohorts_.size() + 4);
    for (const cohort_state& cohort : cohorts_) {
        if (!cohort.probed) {
            continue;
        }
        const double vmin = served_requirement_mv(cohort);
        std::string series = "vmin.";
        series += to_string(cohort.key.corner);
        series += '.' + std::to_string(cohort.key.workload_class);
        series += '.' + std::to_string(cohort.key.operating_point);
        series += '.' + std::to_string(cohort.key.variant);
        samples.emplace_back(std::move(series), vmin);
    }
    samples.emplace_back("fleet.cache_hit_rate",
                         probes_requested_ > 0
                             ? static_cast<double>(scheduled_hits_) /
                                   static_cast<double>(probes_requested_)
                             : 0.0);
    samples.emplace_back("fleet.degraded_cohorts",
                         static_cast<double>(degraded_cohorts()));
    samples.emplace_back("fleet.power_binned_w", power_binned_w_);
    samples.emplace_back("fleet.power_nominal_w", power_nominal_w_);
    return samples;
}

void fleet_service::observe_epoch() {
    timeline_recorder& timeline = *config_.timeline;
    if (epoch_ <= sealed_through_) {
        // A previous lifetime journaled and sealed this epoch's whole
        // block; the warm replay already restored it.
        publish_timeline();
        return;
    }
    GB_ENSURES(epoch_ == open_.epoch);
    const auto samples = observatory_samples();
    // A partial block's samples are already in the recorder (warm replay)
    // at the tick the crashed lifetime drew; resume at that tick so the
    // suffix -- and everything downstream -- lands on the same bytes.
    const std::uint64_t tick =
        open_.tlines > 0 ? open_.tick : timeline.advance();
    observatory_record record;
    record.epoch = epoch_;
    for (std::size_t s = static_cast<std::size_t>(open_.tlines);
         s < samples.size(); ++s) {
        const auto& [series, value] = samples[s];
        timeline.append(series, tick, value);
        record.event.series = series;
        record.event.tick = tick;
        record.event.value = value;
        append_observatory_line(render_record<tline_format>(record));
    }
    // Transitions already journaled by a crashed lifetime were replayed
    // into the engine, so re-evaluating emits exactly the not-yet-
    // journaled suffix (in the same rule-order x series-order the golden
    // run journals).
    std::uint64_t events = open_.alerts;
    if (alerts_ != nullptr) {
        for (const alert_event& event :
             alerts_->evaluate(timeline.snapshot(), tick)) {
            record.event = event;
            append_observatory_line(render_record<alert_format>(record));
            ++events;
        }
    }
    record.samples = samples.size();
    record.events = events;
    append_observatory_line(render_record<tseal_format>(record));
    sealed_through_ = epoch_;
    open_ = open_epoch{epoch_ + 1};
    publish_timeline();
}

std::string fleet_service::state_snapshot() const {
    // The snapshot *is* a final `--status` document with a `fleet` object,
    // so `gbreport status` reads fleet state too.  Every field is
    // *content-pure*: a function of which probes the fleet's request
    // stream resolved, never of which service lifetime executed them, so
    // a crashed-and-recovered daemon's snapshot is bitwise identical to
    // an unfaulted one's (the recovery_check invariant).  Lifetime-local
    // facts -- journal restores, healed bytes, physical cache hits --
    // live in the metrics registry and accessors instead.
    campaign_status status;
    status.campaign = config_.campaign;
    status.running = false;
    status.tasks_total = probes_requested_;
    status.tasks_done = probes_requested_;
    fill_ledger_counters(status);
    fleet_status& fleet = status.fleet.emplace();
    fleet.epoch = epoch_;
    fleet.nodes = spec_.node_count();
    fleet.cohorts = cohorts_.size();
    fleet.probes_executed = cache_.requested();
    fleet.cache_hits = scheduled_hits_;
    fleet.cache_entries = cache_.size();
    fleet.power_nominal_w = power_nominal_w_;
    fleet.power_binned_w = power_binned_w_;
    fleet.supervised_cohorts = supervised_.size();
    fleet.supervised_epochs = supervised_epochs_;
    fleet.bins.assign(bins_.begin(), bins_.end());
    // The quarantine roster and the cohort detail are capped so
    // variant-unique mega-fleets keep the endpoint small; the counts
    // always carry the truth.
    constexpr std::size_t max_detail = 64;
    const auto name = [](const cohort_state& cohort) {
        return status_cohort{std::string(to_string(cohort.key.corner)),
                             cohort.key.workload_class,
                             cohort.key.operating_point, cohort.key.variant,
                             cohort.members};
    };
    for (const cohort_state& cohort : cohorts_) {
        if (cohort.degraded) {
            ++fleet.degraded.cohorts;
            fleet.degraded.nodes += cohort.members;
            if (fleet.degraded.quarantined.size() < max_detail) {
                fleet.degraded.quarantined.push_back(name(cohort));
            }
        }
        if (fleet.cohorts_top.size() < max_detail) {
            fleet.cohorts_top.push_back(
                {name(cohort), cohort.probes,
                 cohort.probed ? cohort.last.requirement_mv : 0.0,
                 cohort.probed ? cohort.last.bucket : -1});
        }
    }
    // Observatory rollup, only when the timeline is configured.  Every
    // field replays from the journal, so it is crash-invariant like the
    // rest.
    if (config_.timeline != nullptr) {
        fleet.timeline = status_timeline{
            config_.timeline->series_count(), config_.timeline->sample_count(),
            alerts_->rules().size(), alerts_->firing(),
            alerts_->events().size()};
    }
    return write_status_json(status);
}

bool fleet_service::publish_state() const {
    if (config_.state_path.empty()) {
        return false;
    }
    return publish_atomic(config_.state_path, state_snapshot(),
                          config_.chaos);
}

std::string fleet_service::timeline_snapshot() const {
    if (config_.timeline == nullptr) {
        return {};
    }
    return write_timeline_json(*config_.timeline, alerts_.get());
}

bool fleet_service::publish_timeline() const {
    if (config_.timeline == nullptr || config_.timeline_path.empty()) {
        return false;
    }
    return publish_atomic(config_.timeline_path, timeline_snapshot(),
                          config_.chaos);
}

operating_point_supervisor& fleet_service::supervisor_for(
    const cohort_key& key, const supervisor_config& config,
    voltage_governor* governor) {
    auto it = supervised_.find(key);
    if (it == supervised_.end()) {
        supervised_cohort cohort;
        cohort.supervisor =
            std::make_unique<operating_point_supervisor>(config, governor);
        cohort.supervisor->set_trace(config_.trace, config_.metrics);
        it = supervised_.emplace(key, std::move(cohort)).first;
    }
    return *it->second.supervisor;
}

supervised_epoch fleet_service::run_epoch(
    const cohort_key& key, const epoch_request& request,
    const std::function<epoch_result(const epoch_plan&)>& execute) {
    const auto it = supervised_.find(key);
    GB_EXPECTS(it != supervised_.end());
    supervised_epoch epoch =
        run_supervised_epoch(*it->second.supervisor, request, execute);
    ++it->second.epochs;
    ++supervised_epochs_;
    return epoch;
}

} // namespace gb::fleet
