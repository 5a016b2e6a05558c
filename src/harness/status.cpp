#include "harness/status.hpp"

#include "harness/publish.hpp"
#include "util/json_codec.hpp"

namespace gb {

namespace {

/// The `live` object; campaign_status keeps its fields flat.
template <typename Status>
struct live_view {
    Status& status;
};

} // namespace

// --- the snapshot format ---------------------------------------------------
//
// Each JSON object is declared once (util/json_codec.hpp); the writer and
// the reader walk the same declaration.

template <>
struct json_object<campaign_status> {
    static void fields(auto& field, auto& status) {
        field("campaign", status.campaign);
        field("running", status.running);
        field("tasks_total", status.tasks_total);
        field("tasks_done", status.tasks_done);
        field("retries", status.retries);
        field("injected_faults", status.injected_faults);
        field("aborted_rig", status.aborted_rig);
        field("replayed", status.replayed);
        field("rig_downtime_ms", status.rig_downtime_ms);
        if (status.running) {
            field("live", live_view{status});
        }
        field("fleet", status.fleet);
    }
};

template <typename Status>
struct json_object<live_view<Status>> {
    static void fields(auto& field, auto& live) {
        field("workers", live.status.workers);
        field("worker_task", live.status.worker_task);
        field("wall_elapsed_s", live.status.wall_elapsed_s);
    }
};

template <>
struct json_object<fleet_status> {
    static void fields(auto& field, auto& fleet) {
        field("epoch", fleet.epoch);
        field("nodes", fleet.nodes);
        field("cohorts", fleet.cohorts);
        field("probes_executed", fleet.probes_executed);
        field("cache_hits", fleet.cache_hits);
        field("cache_entries", fleet.cache_entries);
        field("power_nominal_w", fleet.power_nominal_w);
        field("power_binned_w", fleet.power_binned_w);
        field("supervised_cohorts", fleet.supervised_cohorts);
        field("supervised_epochs", fleet.supervised_epochs);
        field("bins", fleet.bins);
        field("degraded", fleet.degraded);
        field("cohorts_top", fleet.cohorts_top);
        field("timeline", fleet.timeline);
    }
};

template <>
struct json_object<fleet_status::quarantine> {
    static void fields(auto& field, auto& degraded) {
        field("cohorts", degraded.cohorts);
        field("nodes", degraded.nodes);
        field("quarantined", degraded.quarantined);
    }
};

template <>
struct json_object<status_cohort> {
    static void fields(auto& field, auto& cohort) {
        field("corner", cohort.corner);
        field("class", cohort.workload_class);
        field("op", cohort.operating_point);
        field("variant", cohort.variant);
        field("members", cohort.members);
    }
};

template <>
struct json_object<status_cohort_probe> {
    static void fields(auto& field, auto& row) {
        json_object<status_cohort>::fields(field, row.cohort);
        field("probes", row.probes);
        field("req_mv", row.req_mv);
        field("bucket", row.bucket);
    }
};

template <>
struct json_object<status_timeline> {
    static void fields(auto& field, auto& timeline) {
        field("series", timeline.series);
        field("samples", timeline.samples);
        field("rules", timeline.rules);
        field("firing", timeline.firing);
        field("events", timeline.events);
    }
};

std::string write_status_json(const campaign_status& status) {
    return write_json(status);
}

std::optional<campaign_status> read_status_json(std::string_view text,
                                                std::string& error) {
    return read_json<campaign_status>(text, "status", error);
}

bool publish_status(const std::string& path, const campaign_status& status) {
    return publish_atomic(path, write_status_json(status));
}

} // namespace gb
