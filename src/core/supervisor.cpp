#include "core/supervisor.hpp"

#include <algorithm>
#include <cmath>

#include "core/governor.hpp"
#include "core/refresh_policy.hpp"
#include "harness/timeseries/timeseries.hpp"
#include "harness/trace/trace.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace gb {

std::string_view to_string(supervisor_state state) {
    switch (state) {
    case supervisor_state::nominal: return "nominal";
    case supervisor_state::probing: return "probing";
    case supervisor_state::exploiting: return "exploiting";
    case supervisor_state::degraded: return "degraded";
    case supervisor_state::quarantined: return "quarantined";
    }
    return "?";
}

// ---------------------------------------------------------------------------
// epoch_fault_plan

epoch_fault_plan::epoch_fault_plan(epoch_fault_config config)
    : config_(config) {
    GB_EXPECTS(config.sdc_rate >= 0.0 && config.sdc_rate <= 1.0);
    GB_EXPECTS(config.ce_burst_rate >= 0.0 && config.ce_burst_rate <= 1.0);
    GB_EXPECTS(config.hang_rate >= 0.0 && config.hang_rate <= 1.0);
}

double epoch_fault_plan::draw(std::uint64_t epoch, std::uint64_t salt) const {
    // Counter-mode splitmix64 over (seed, epoch, fault kind): stateless, so
    // the injected fault schedule is a pure function of the epoch index and
    // identical at any worker count or evaluation order.
    std::uint64_t state =
        config_.seed ^ (epoch * 0x9e3779b97f4a7c15ULL) ^ (salt << 32);
    const std::uint64_t bits = splitmix64(state);
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

bool epoch_fault_plan::inject_sdc(std::uint64_t epoch) const {
    return draw(epoch, 1) < config_.sdc_rate;
}

bool epoch_fault_plan::inject_ce_burst(std::uint64_t epoch) const {
    return draw(epoch, 2) < config_.ce_burst_rate;
}

bool epoch_fault_plan::inject_hang(std::uint64_t epoch) const {
    return draw(epoch, 3) < config_.hang_rate;
}

void epoch_fault_plan::apply(std::uint64_t epoch, epoch_result& result) const {
    // A hang dominates everything except a crash (both lose the epoch; keep
    // the model's crash if it already happened).
    if (inject_hang(epoch) && result.outcome != run_outcome::crash) {
        result.outcome = run_outcome::hang;
    }
    // Injected SDC only lands on an otherwise-clean epoch: a corrupted run
    // that also crashed is not *silent*.
    if (inject_sdc(epoch) && result.outcome == run_outcome::ok) {
        result.outcome = run_outcome::silent_data_corruption;
    }
    if (inject_ce_burst(epoch)) {
        result.dram_ce_words += config_.ce_burst_words;
    }
}

// ---------------------------------------------------------------------------
// operating_point_supervisor

operating_point_supervisor::operating_point_supervisor(
    supervisor_config config, voltage_governor* governor)
    : config_(config), governor_(governor),
      stage_(config.degradation_stages) {
    GB_EXPECTS(config.degradation_stages >= 1);
    GB_EXPECTS(config.voltage_stage.value > 0.0);
    GB_EXPECTS(config.breaker.window >= 1);
    GB_EXPECTS(config.breaker.trip_score > 0.0);
    GB_EXPECTS(config.breaker.quarantine_ttl >= 1);
    GB_EXPECTS(config.sentinel_sdc_budget > 0.0);
    GB_EXPECTS(config.max_sentinel_interval >= 1);
    GB_EXPECTS(config.sentinel_overhead >= 0.0);
    GB_EXPECTS(config.promote_after_clean >= 1);
}

void operating_point_supervisor::set_trace(tracer* trace,
                                           metrics_registry* metrics) {
    trace_ = trace;
    metrics_ = metrics;
    trace_minor_ = 0;
    if (trace_ != nullptr) {
        trace_phase_ = trace_->allocate_phase();
    }
    if (metrics_ != nullptr) {
        mh_.epochs = metrics_->counter("supervisor.epochs");
        mh_.breaker_trips = metrics_->counter("supervisor.breaker_trips");
        mh_.watchdog_aborts =
            metrics_->counter("supervisor.watchdog_aborts");
        mh_.detected_sdc = metrics_->counter("supervisor.detected_sdc");
        mh_.quarantine_lifts =
            metrics_->counter("supervisor.quarantine_lifts");
        mh_.epoch_score_centi = metrics_->histogram(
            "supervisor.epoch_score_centi", {0, 25, 100, 150, 300, 600});
    }
}

void operating_point_supervisor::trace_event(
    const char* name,
    std::vector<std::pair<std::string, std::string>> args) {
    if (trace_ == nullptr) {
        return;
    }
    trace_span event;
    event.name = name;
    event.category = "supervisor";
    // The in-flight epoch's index: telemetry_.epochs only advances when the
    // epoch settles, so pre-settle events (watchdog aborts, trips) land in
    // the same slot as the epoch span that eventually commits.
    event.at = trace_point{track_supervisor, trace_phase_, telemetry_.epochs,
                           ++trace_minor_};
    event.start_ticks = trace_minor_;
    event.instant = true;
    event.args = std::move(args);
    trace_->record(0, std::move(event));
}

operating_point_supervisor::breaker_key
operating_point_supervisor::key_of(const epoch_request& request) const {
    return breaker_key{request.pmd, request.workload_class};
}

millivolts operating_point_supervisor::staged_voltage(millivolts desired,
                                                      int stage) const {
    if (stage >= config_.degradation_stages) {
        return nominal_pmd_voltage; // final stage is exactly nominal
    }
    const double staged =
        desired.value + static_cast<double>(stage) * config_.voltage_stage.value;
    return millivolts{std::min(staged, nominal_pmd_voltage.value)};
}

supervisor_state operating_point_supervisor::state() const {
    if (stage_ == 0) {
        return supervisor_state::exploiting;
    }
    if (descending_) {
        return stage_ == config_.degradation_stages
                   ? supervisor_state::nominal
                   : supervisor_state::probing;
    }
    return supervisor_state::degraded;
}

bool operating_point_supervisor::is_quarantined(
    int pmd, std::string_view workload_class) const {
    return quarantine_.find(breaker_key{
               pmd, std::string(workload_class)}) != quarantine_.end();
}

epoch_plan operating_point_supervisor::plan(
    const epoch_request& request) const {
    GB_EXPECTS(request.predicted_sdc >= 0.0 && request.predicted_sdc <= 1.0);
    epoch_plan p;
    const bool quarantined = is_quarantined(request.pmd,
                                            request.workload_class);
    // A quarantined operating point runs at exactly nominal for the TTL; the
    // rest of the machine keeps its current stage.
    p.stage = quarantined ? config_.degradation_stages : stage_;
    p.state = quarantined ? supervisor_state::quarantined : state();
    p.voltage = staged_voltage(request.desired_voltage, p.stage);
    p.refresh = adaptive_refresh_policy::staged_toward_nominal(
        request.desired_refresh, p.stage, config_.degradation_stages);
    // Sentinels only pay off below nominal, where the marginal region's SDC
    // mass is live.  Arm one when the accumulated predicted SDC probability
    // reaches the budget, or the latency bound expires.
    p.sentinel =
        p.stage < config_.degradation_stages &&
        (sentinel_accum_ + request.predicted_sdc >= config_.sentinel_sdc_budget ||
         since_sentinel_ + 1 >= config_.max_sentinel_interval);
    return p;
}

void operating_point_supervisor::demote() {
    stage_ = std::min(stage_ + 1, config_.degradation_stages);
    descending_ = false;
    clean_streak_ = 0;
    trace_event("demote", {{"stage", std::to_string(stage_)}});
}

void operating_point_supervisor::score_breaker(const epoch_request& request,
                                               double score,
                                               millivolts observed) {
    const breaker_config& bc = config_.breaker;
    const breaker_key key = key_of(request);
    breaker_window& breaker = breakers_[key];
    breaker.scores.push_back(score);
    breaker.sum += score;
    while (breaker.scores.size() > bc.window) {
        breaker.sum -= breaker.scores.front();
        breaker.scores.pop_front();
    }
    if (breaker.sum < bc.trip_score) {
        return;
    }
    ++telemetry_.breaker_trips;
    quarantine_[key] = bc.quarantine_ttl;
    fresh_quarantine_.push_back(key);
    if (metrics_ != nullptr) {
        metrics_->add(0, mh_.breaker_trips);
    }
    trace_event("breaker_trip",
                {{"pmd", std::to_string(key.first)},
                 {"class", key.second},
                 {"window_score_centi",
                  std::to_string(std::llround(breaker.sum * 100.0))}});
    breaker.scores.clear();
    breaker.sum = 0.0;
    demote();
    if (governor_ != nullptr) {
        const millivolts requirement =
            observed.value > 0.0
                ? observed
                : millivolts{request.desired_voltage.value +
                             config_.trip_backoff.value};
        governor_->force_backoff(config_.trip_backoff, requirement);
    }
}

void operating_point_supervisor::settle_epoch(const epoch_request& request,
                                              const epoch_plan& plan,
                                              const epoch_result& result,
                                              epoch_disposition disposition) {
    // --- sentinel bookkeeping -------------------------------------------
    if (plan.sentinel) {
        sentinel_accum_ = 0.0;
        since_sentinel_ = 0;
        telemetry_.sentinel_overhead_w_epochs +=
            config_.sentinel_overhead * result.epoch_power_w;
    } else {
        sentinel_accum_ += request.predicted_sdc;
        ++since_sentinel_;
    }

    // --- score the epoch's observable events ----------------------------
    const breaker_config& bc = config_.breaker;
    double score = 0.0;
    bool sentinel_caught_sdc = false;
    switch (result.outcome) {
    case run_outcome::ok:
        break;
    case run_outcome::corrected_error:
        score += bc.ce_weight;
        break;
    case run_outcome::uncorrectable_error:
        score += bc.ue_weight;
        break;
    case run_outcome::silent_data_corruption:
        // Only a sentinel epoch *sees* silent corruption; anywhere else it
        // passes unnoticed and is ground-truth accounting only.
        if (plan.sentinel) {
            score += bc.sdc_weight;
            ++telemetry_.detected_sdc;
            sentinel_caught_sdc = true;
            if (metrics_ != nullptr) {
                metrics_->add(0, mh_.detected_sdc);
            }
        } else {
            ++telemetry_.undetected_sdc;
        }
        break;
    case run_outcome::crash:
    case run_outcome::hang:
    case run_outcome::aborted_rig:
        score += bc.disruption_weight;
        break;
    }
    if (result.dram_ce_words >= config_.dram_ce_burst_words) {
        score += bc.dram_burst_weight;
        ++telemetry_.dram_ce_bursts;
    }
    if (result.dram_ue_words > 0) {
        score += bc.ue_weight;
    }

    if (plan.sentinel) {
        trace_event("sentinel", {{"verdict", sentinel_caught_sdc
                                                 ? "sdc_detected"
                                                 : "clean"}});
    }

    // --- slide the breaker window, trip if it crosses -------------------
    if (plan.state != supervisor_state::quarantined) {
        score_breaker(request, score, result.observed_requirement);
    }

    // --- promotion hysteresis -------------------------------------------
    // The initial probing descent moves one stage per clean epoch; only
    // recovery after a trip or abort pays the full clean-streak hysteresis.
    const std::size_t promote_after =
        descending_ ? 1 : config_.promote_after_clean;
    if (score == 0.0 && result.outcome == run_outcome::ok) {
        ++clean_streak_;
        if (clean_streak_ >= promote_after && stage_ > 0) {
            --stage_;
            clean_streak_ = 0;
            trace_event("promote", {{"stage", std::to_string(stage_)}});
        }
    } else {
        clean_streak_ = 0;
    }

    // --- quarantine TTL tick (one global epoch elapsed) -----------------
    // Quarantines created while this epoch was in flight are exempt: their
    // TTL counts *subsequent* epochs.  Without the exemption a ttl=1
    // quarantine would expire in the very epoch whose trip created it --
    // never pinning anything -- and the governor's reset_history() could
    // fire in the same epoch force_backoff pinned the storm requirement.
    telemetry_.quarantine_occupancy += quarantine_.size();
    for (auto it = quarantine_.begin(); it != quarantine_.end();) {
        const bool fresh =
            std::find(fresh_quarantine_.begin(), fresh_quarantine_.end(),
                      it->first) != fresh_quarantine_.end();
        if (!fresh && --it->second == 0) {
            trace_event("quarantine_lift",
                        {{"pmd", std::to_string(it->first.first)},
                         {"class", it->first.second}});
            if (metrics_ != nullptr) {
                metrics_->add(0, mh_.quarantine_lifts);
            }
            it = quarantine_.erase(it);
            if (quarantine_.empty() && governor_ != nullptr) {
                // Last quarantine lifted: drop the storm-era droop history so
                // the probabilistic floor re-learns the recovered regime.
                governor_->reset_history();
            }
        } else {
            ++it;
        }
    }
    fresh_quarantine_.clear();

    // --- energy accounting of staying safe ------------------------------
    if (plan.stage > 0 &&
        result.epoch_power_w > result.unsupervised_power_w) {
        telemetry_.degradation_overhead_w_epochs +=
            result.epoch_power_w - result.unsupervised_power_w;
    }
    if (plan.state == supervisor_state::degraded ||
        plan.state == supervisor_state::quarantined) {
        ++telemetry_.degraded_epochs;
    }

    if (metrics_ != nullptr) {
        metrics_->add(0, mh_.epochs);
        metrics_->observe(
            0, mh_.epoch_score_centi,
            static_cast<std::uint64_t>(std::llround(score * 100.0)));
    }
    if (trace_ != nullptr) {
        // The epoch span, recorded before account() so its major is the
        // same index the epoch's instant events used.
        trace_span span;
        span.name = "epoch";
        span.category = "supervisor";
        span.at = trace_point{track_supervisor, trace_phase_,
                              telemetry_.epochs, 0};
        span.duration_ticks = 100;
        span.args.emplace_back("disposition",
                               std::string(to_string(disposition)));
        span.args.emplace_back("state",
                               std::string(to_string(plan.state)));
        span.args.emplace_back("stage", std::to_string(plan.stage));
        span.args.emplace_back(
            "voltage_mv",
            std::to_string(std::llround(plan.voltage.value)));
        trace_->record(0, std::move(span));
    }
    trace_minor_ = 0;

    telemetry_.account(disposition);

    if (timeline_ != nullptr) {
        // One virtual tick per settled epoch; the appended values are all
        // settled-state counters, so the series are a pure function of the
        // epoch sequence.
        const std::uint64_t tick = timeline_->advance();
        timeline_->append("supervisor.stage", tick,
                          static_cast<double>(stage_));
        timeline_->append("supervisor.quarantines", tick,
                          static_cast<double>(quarantine_.size()));
        timeline_->append("supervisor.breaker_trips", tick,
                          static_cast<double>(telemetry_.breaker_trips));
        timeline_->append("supervisor.detected_sdc", tick,
                          static_cast<double>(telemetry_.detected_sdc));
    }
}

epoch_disposition operating_point_supervisor::observe(
    const epoch_request& request, const epoch_plan& plan,
    const epoch_result& result) {
    epoch_disposition disposition = epoch_disposition::committed;
    if (plan.state == supervisor_state::quarantined) {
        disposition = epoch_disposition::quarantined;
    } else if (plan.sentinel) {
        disposition = epoch_disposition::sentinel;
    }
    settle_epoch(request, plan, result, disposition);
    return disposition;
}

void operating_point_supervisor::observe_watchdog_abort(
    const epoch_request& request, const epoch_plan& plan) {
    ++telemetry_.watchdog_aborts;
    if (metrics_ != nullptr) {
        metrics_->add(0, mh_.watchdog_aborts);
    }
    trace_event("watchdog_abort",
                {{"stage", std::to_string(plan.stage)},
                 {"class", request.workload_class}});
    // The hang is a disruption the breaker must see even though the epoch
    // itself settles later, with the replay's result.
    demote();
    if (plan.state != supervisor_state::quarantined) {
        score_breaker(request, config_.breaker.disruption_weight,
                      millivolts{0.0});
    }
}

epoch_disposition operating_point_supervisor::observe_replay(
    const epoch_request& request, const epoch_plan& plan,
    const epoch_result& result, double lost_power_w) {
    GB_EXPECTS(lost_power_w >= 0.0);
    telemetry_.degradation_overhead_w_epochs += lost_power_w;
    const epoch_disposition disposition =
        result.outcome == run_outcome::hang ? epoch_disposition::aborted
                                            : epoch_disposition::replayed;
    settle_epoch(request, plan, result, disposition);
    return disposition;
}

// ---------------------------------------------------------------------------
// run_supervised_epoch

supervised_epoch run_supervised_epoch(
    operating_point_supervisor& supervisor, const epoch_request& request,
    const std::function<epoch_result(const epoch_plan&)>& execute) {
    supervised_epoch epoch;
    epoch.plan = supervisor.plan(request);
    epoch.result = execute(epoch.plan);
    if (epoch.result.outcome != run_outcome::hang) {
        epoch.disposition = supervisor.observe(request, epoch.plan,
                                               epoch.result);
        return epoch;
    }
    // Watchdog: the deadline expired.  Account the lost attempt's energy,
    // demote one stage and replay once at the degraded point.
    supervisor.observe_watchdog_abort(request, epoch.plan);
    epoch.lost_power_w = epoch.result.epoch_power_w;
    epoch.plan = supervisor.plan(request);
    epoch.result = execute(epoch.plan);
    epoch.disposition = supervisor.observe_replay(
        request, epoch.plan, epoch.result, epoch.lost_power_w);
    return epoch;
}

} // namespace gb
