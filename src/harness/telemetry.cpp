#include "harness/telemetry.hpp"

#include "harness/trace/metrics.hpp"

namespace gb {

std::string_view to_string(epoch_disposition disposition) {
    switch (disposition) {
    case epoch_disposition::committed: return "committed";
    case epoch_disposition::sentinel: return "sentinel";
    case epoch_disposition::replayed: return "replayed";
    case epoch_disposition::aborted: return "aborted";
    case epoch_disposition::quarantined: return "quarantined";
    }
    return "?";
}

void health_telemetry::account(epoch_disposition disposition) {
    ++epochs;
    switch (disposition) {
    case epoch_disposition::committed: ++committed; break;
    case epoch_disposition::sentinel: ++sentinel_epochs; break;
    case epoch_disposition::replayed: ++replayed; break;
    case epoch_disposition::aborted: ++aborted; break;
    case epoch_disposition::quarantined: ++quarantined_epochs; break;
    }
}

double health_telemetry::mean_overhead_w() const {
    return epochs == 0 ? 0.0
                       : (sentinel_overhead_w_epochs +
                          degradation_overhead_w_epochs) /
                             static_cast<double>(epochs);
}

void health_telemetry::merge(const health_telemetry& other) {
    epochs += other.epochs;
    committed += other.committed;
    sentinel_epochs += other.sentinel_epochs;
    replayed += other.replayed;
    aborted += other.aborted;
    quarantined_epochs += other.quarantined_epochs;
    detected_sdc += other.detected_sdc;
    undetected_sdc += other.undetected_sdc;
    dram_ce_bursts += other.dram_ce_bursts;
    breaker_trips += other.breaker_trips;
    watchdog_aborts += other.watchdog_aborts;
    quarantine_occupancy += other.quarantine_occupancy;
    degraded_epochs += other.degraded_epochs;
    sentinel_overhead_w_epochs += other.sentinel_overhead_w_epochs;
    degradation_overhead_w_epochs += other.degradation_overhead_w_epochs;
}

void health_telemetry::publish(metrics_registry& metrics, std::size_t shard,
                               std::uint64_t order) const {
    const auto put = [&](const char* name, double value) {
        metrics.set(shard, metrics.gauge(name), order, value);
    };
    put("health.epochs", static_cast<double>(epochs));
    put("health.committed", static_cast<double>(committed));
    put("health.sentinel_epochs", static_cast<double>(sentinel_epochs));
    put("health.replayed", static_cast<double>(replayed));
    put("health.aborted", static_cast<double>(aborted));
    put("health.quarantined_epochs",
        static_cast<double>(quarantined_epochs));
    put("health.detected_sdc", static_cast<double>(detected_sdc));
    put("health.undetected_sdc", static_cast<double>(undetected_sdc));
    put("health.dram_ce_bursts", static_cast<double>(dram_ce_bursts));
    put("health.breaker_trips", static_cast<double>(breaker_trips));
    put("health.watchdog_aborts", static_cast<double>(watchdog_aborts));
    put("health.quarantine_occupancy",
        static_cast<double>(quarantine_occupancy));
    put("health.degraded_epochs", static_cast<double>(degraded_epochs));
    put("health.sentinel_overhead_w_epochs", sentinel_overhead_w_epochs);
    put("health.degradation_overhead_w_epochs",
        degradation_overhead_w_epochs);
}

} // namespace gb
