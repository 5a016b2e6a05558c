#include "harness/report/artifacts.hpp"

#include <fstream>

#include "harness/logfile.hpp"
#include "harness/report/json.hpp"
#include "util/wire.hpp"

namespace gb::report {

namespace {

/// Prefix a loader diagnostic so every error is one self-contained line.
std::string tagged(std::string_view what, std::string_view detail) {
    std::string out(what);
    out += ": ";
    out += detail;
    return out;
}

} // namespace

std::optional<std::string> read_file(const std::string& path,
                                     std::string& error) {
    std::optional<std::string> text = gb::read_file(path);
    if (!text) {
        error = tagged(path, "cannot open file");
    }
    return text;
}

// --- trace --------------------------------------------------------------

const std::string* trace_event::arg(std::string_view key) const {
    for (const auto& [name, value] : args) {
        if (name == key) {
            return &value;
        }
    }
    return nullptr;
}

std::optional<std::uint64_t> trace_event::arg_u64(
    std::string_view key) const {
    const std::string* text = arg(key);
    if (text == nullptr) {
        return std::nullopt;
    }
    std::uint64_t parsed = 0;
    std::size_t digits = 0;
    for (const char c : *text) {
        if (c < '0' || c > '9' || digits > 19) {
            return std::nullopt;
        }
        parsed = parsed * 10 + static_cast<std::uint64_t>(c - '0');
        ++digits;
    }
    if (digits == 0) {
        return std::nullopt;
    }
    return parsed;
}

std::vector<const trace_event*> trace_artifact::on_track(
    std::uint32_t track) const {
    std::vector<const trace_event*> out;
    for (const trace_event& event : events) {
        if (event.track == track) {
            out.push_back(&event);
        }
    }
    return out;
}

std::optional<trace_artifact> load_trace(std::string_view text,
                                         std::string& error) {
    json_parse_result parsed = parse_json(text);
    if (!parsed.value) {
        error = tagged("trace", parsed.error);
        return std::nullopt;
    }
    const json_value& root = *parsed.value;
    if (!root.is_object()) {
        error = "trace: top level is not an object";
        return std::nullopt;
    }
    const json_value* events = root.find("traceEvents");
    if (events == nullptr || !events->is_array()) {
        error = "trace: missing traceEvents array";
        return std::nullopt;
    }

    trace_artifact artifact;
    for (std::size_t i = 0; i < events->items.size(); ++i) {
        const json_value& entry = events->items[i];
        const std::string position =
            "trace event " + std::to_string(i) + ": ";
        if (!entry.is_object()) {
            error = position + "not an object";
            return std::nullopt;
        }
        const json_value* ph = entry.find("ph");
        const auto ph_text =
            ph != nullptr ? ph->as_string() : std::nullopt;
        if (!ph_text) {
            error = position + "missing ph";
            return std::nullopt;
        }
        const json_value* tid = entry.find("tid");
        const auto track = tid != nullptr ? tid->as_u64() : std::nullopt;
        if (!track || *track > 0xffffffffULL) {
            error = position + "missing or invalid tid";
            return std::nullopt;
        }
        const json_value* name = entry.find("name");
        const auto name_text =
            name != nullptr ? name->as_string() : std::nullopt;
        if (!name_text) {
            error = position + "missing name";
            return std::nullopt;
        }

        if (*ph_text == "M") {
            // Track-name metadata; anything else ("process_name", ...)
            // would be from a foreign producer -- reject rather than
            // guess.
            if (*name_text != "thread_name") {
                error = position + "unsupported metadata record";
                return std::nullopt;
            }
            const json_value* args = entry.find("args");
            const json_value* label =
                args != nullptr ? args->find("name") : nullptr;
            const auto label_text =
                label != nullptr ? label->as_string() : std::nullopt;
            if (!label_text) {
                error = position + "thread_name without args.name";
                return std::nullopt;
            }
            artifact.track_names[static_cast<std::uint32_t>(*track)] =
                std::string(*label_text);
            continue;
        }

        trace_event event;
        if (*ph_text == "X") {
            event.ph = trace_event::phase::complete;
        } else if (*ph_text == "i") {
            event.ph = trace_event::phase::instant;
        } else {
            error = position + "unsupported event phase '" +
                    std::string(*ph_text) + "'";
            return std::nullopt;
        }
        event.track = static_cast<std::uint32_t>(*track);
        event.name = std::string(*name_text);

        const json_value* ts = entry.find("ts");
        const auto ts_value = ts != nullptr ? ts->as_u64() : std::nullopt;
        if (!ts_value) {
            error = position + "missing or negative ts";
            return std::nullopt;
        }
        event.ts = *ts_value;
        if (event.ph == trace_event::phase::complete) {
            const json_value* dur = entry.find("dur");
            const auto dur_value =
                dur != nullptr ? dur->as_u64() : std::nullopt;
            if (!dur_value) {
                error = position + "complete span without dur";
                return std::nullopt;
            }
            event.dur = *dur_value;
        }
        if (const json_value* cat = entry.find("cat")) {
            if (const auto cat_text = cat->as_string()) {
                event.category = std::string(*cat_text);
            }
        }
        if (const json_value* args = entry.find("args")) {
            if (!args->is_object()) {
                error = position + "args is not an object";
                return std::nullopt;
            }
            for (const auto& [key, value] : args->members) {
                const auto text_value = value.as_string();
                if (!text_value) {
                    error = position + "non-string arg '" + key + "'";
                    return std::nullopt;
                }
                event.args.emplace_back(key, std::string(*text_value));
            }
        }
        artifact.events.push_back(std::move(event));
    }
    return artifact;
}

std::optional<trace_artifact> load_trace_file(const std::string& path,
                                              std::string& error) {
    const auto text = read_file(path, error);
    if (!text) {
        return std::nullopt;
    }
    auto artifact = load_trace(*text, error);
    if (!artifact) {
        error = tagged(path, error);
    }
    return artifact;
}

// --- metrics ------------------------------------------------------------

namespace {

bool load_histogram(const json_value& value, histogram_snapshot& out,
                    std::string& reason) {
    if (!value.is_object()) {
        reason = "histogram is not an object";
        return false;
    }
    const json_value* bounds = value.find("bounds");
    const json_value* counts = value.find("counts");
    const json_value* count = value.find("count");
    const json_value* sum = value.find("sum");
    if (bounds == nullptr || !bounds->is_array() || counts == nullptr ||
        !counts->is_array() || count == nullptr || sum == nullptr) {
        reason = "histogram missing bounds/counts/count/sum";
        return false;
    }
    for (const json_value& bound : bounds->items) {
        const auto parsed = bound.as_u64();
        if (!parsed) {
            reason = "non-integer histogram bound";
            return false;
        }
        out.bounds.push_back(*parsed);
    }
    for (const json_value& bucket : counts->items) {
        const auto parsed = bucket.as_u64();
        if (!parsed) {
            reason = "non-integer histogram bucket";
            return false;
        }
        out.counts.push_back(*parsed);
    }
    if (out.counts.size() != out.bounds.size() + 1) {
        reason = "histogram bucket count does not match bounds";
        return false;
    }
    const auto count_value = count->as_u64();
    const auto sum_value = sum->as_u64();
    if (!count_value || !sum_value) {
        reason = "non-integer histogram count/sum";
        return false;
    }
    out.count = *count_value;
    out.sum = *sum_value;
    return true;
}

} // namespace

std::optional<metrics_snapshot> load_metrics(std::string_view text,
                                             std::string& error) {
    json_parse_result parsed = parse_json(text);
    if (!parsed.value) {
        error = tagged("metrics", parsed.error);
        return std::nullopt;
    }
    const json_value& root = *parsed.value;
    if (!root.is_object()) {
        error = "metrics: top level is not an object";
        return std::nullopt;
    }
    const json_value* counters = root.find("counters");
    const json_value* gauges = root.find("gauges");
    const json_value* histograms = root.find("histograms");
    if (counters == nullptr || !counters->is_object() || gauges == nullptr ||
        !gauges->is_object() || histograms == nullptr ||
        !histograms->is_object()) {
        error = "metrics: missing counters/gauges/histograms sections";
        return std::nullopt;
    }

    metrics_snapshot snapshot;
    for (const auto& [name, value] : counters->members) {
        const auto parsed_value = value.as_u64();
        if (!parsed_value) {
            error = "metrics: counter '" + name +
                    "' is not a non-negative integer";
            return std::nullopt;
        }
        snapshot.counters.emplace_back(name, *parsed_value);
    }
    for (const auto& [name, value] : gauges->members) {
        const auto parsed_value = value.as_number();
        if (!parsed_value) {
            error = "metrics: gauge '" + name + "' is not a number";
            return std::nullopt;
        }
        snapshot.gauges.emplace_back(name, *parsed_value);
    }
    for (const auto& [name, value] : histograms->members) {
        histogram_snapshot histogram;
        std::string reason;
        if (!load_histogram(value, histogram, reason)) {
            error = "metrics: histogram '" + name + "': " + reason;
            return std::nullopt;
        }
        snapshot.histograms.emplace_back(name, std::move(histogram));
    }
    return snapshot;
}

std::optional<metrics_snapshot> load_metrics_file(const std::string& path,
                                                  std::string& error) {
    const auto text = read_file(path, error);
    if (!text) {
        return std::nullopt;
    }
    auto snapshot = load_metrics(*text, error);
    if (!snapshot) {
        error = tagged(path, error);
    }
    return snapshot;
}

// --- journal ------------------------------------------------------------

std::optional<journal_artifact> load_journal_file(const std::string& path,
                                                  std::string& error) {
    std::ifstream in(path);
    if (!in.is_open()) {
        error = tagged(path, "cannot open file");
        return std::nullopt;
    }
    journal_artifact artifact;
    std::string line;
    while (std::getline(in, line)) {
        if (in.eof()) {
            // No trailing newline: the journal is live and this line is
            // still being appended.  Surface a clean truncated-tail
            // indicator instead of mis-reporting the partial bytes as a
            // skipped (corrupt) record.
            artifact.truncated_tail = !line.empty();
            break;
        }
        if (line.empty()) {
            continue;
        }
        ++artifact.lines;
        std::size_t index = 0;
        std::string_view payload;
        if (!parse_journal_prefix(line, index, payload)) {
            ++artifact.skipped;
            continue;
        }
        run_record cpu_record;
        if (parse_log_line(payload, cpu_record)) {
            artifact.cpu.completed[index] = std::move(cpu_record);
            continue;
        }
        dram_run_record dram_record;
        if (parse_log_line(payload, dram_record)) {
            artifact.dram.completed[index] = std::move(dram_record);
            continue;
        }
        ++artifact.skipped;
    }
    artifact.cpu.skipped = artifact.skipped;
    artifact.dram.skipped = artifact.skipped;
    if (artifact.records() == 0) {
        error = tagged(
            path,
            artifact.truncated_tail
                ? "journal holds only a truncated tail (still being "
                  "written?)"
            : artifact.lines == 0
                ? "journal is empty"
                : "no recoverable record in " +
                      std::to_string(artifact.lines) + " lines");
        return std::nullopt;
    }
    return artifact;
}

// --- timeline -----------------------------------------------------------

const series_snapshot* timeline_artifact::find(std::string_view name) const {
    for (const series_snapshot& s : series) {
        if (s.name == name) {
            return &s;
        }
    }
    return nullptr;
}

namespace {

/// A crashed writer leaves timeline.json as a strict byte prefix.  The
/// writer breaks lines only at record boundaries, so trimming to the last
/// newline yields complete records; dropping one dangling comma and
/// closing the open scopes turns that prefix back into a document.
std::optional<std::string> close_torn_tail(std::string_view text) {
    const std::size_t cut = text.rfind('\n');
    if (cut == std::string_view::npos) {
        return std::nullopt;
    }
    std::string_view head = text.substr(0, cut);
    while (!head.empty() &&
           (head.back() == ' ' || head.back() == '\t' ||
            head.back() == '\r' || head.back() == '\n')) {
        head.remove_suffix(1);
    }
    if (!head.empty() && head.back() == ',') {
        head.remove_suffix(1);
    }
    std::string closers;
    bool in_string = false;
    bool escaped = false;
    for (const char c : head) {
        if (in_string) {
            if (escaped) {
                escaped = false;
            } else if (c == '\\') {
                escaped = true;
            } else if (c == '"') {
                in_string = false;
            }
            continue;
        }
        if (c == '"') {
            in_string = true;
        } else if (c == '{') {
            closers += '}';
        } else if (c == '[') {
            closers += ']';
        } else if (c == '}' || c == ']') {
            if (closers.empty() || closers.back() != c) {
                return std::nullopt; // not a prefix of well-formed JSON
            }
            closers.pop_back();
        }
    }
    if (in_string) {
        return std::nullopt;
    }
    std::string out(head);
    out.append(closers.rbegin(), closers.rend());
    return out;
}

/// True when a parse diagnostic ("byte <offset>: ...") points at or past
/// the end of the input: the parser ran out of bytes, i.e. the document
/// is a strict prefix (a tear), not mid-document corruption.
bool parse_failed_at_end(const std::string& error, std::size_t size) {
    if (error.rfind("byte ", 0) != 0) {
        return false;
    }
    std::size_t offset = 0;
    std::size_t digits = 0;
    for (std::size_t i = 5; i < error.size() && error[i] != ':'; ++i) {
        if (error[i] < '0' || error[i] > '9') {
            return false;
        }
        offset = offset * 10 + static_cast<std::size_t>(error[i] - '0');
        ++digits;
    }
    return digits > 0 && offset >= size;
}

bool parse_timeline_document(const json_value& root,
                             timeline_artifact& artifact,
                             std::string& error) {
    if (!root.is_object()) {
        error = "timeline: top level is not an object";
        return false;
    }
    const json_value* series = root.find("series");
    if (series == nullptr || !series->is_object()) {
        error = "timeline: missing series section";
        return false;
    }
    for (const auto& [name, value] : series->members) {
        const std::string position = "timeline series '" + name + "': ";
        if (!value.is_object()) {
            error = position + "not an object";
            return false;
        }
        series_snapshot snapshot;
        snapshot.name = name;
        const json_value* count = value.find("count");
        const auto count_value =
            count != nullptr ? count->as_u64() : std::nullopt;
        if (!count_value) {
            error = position + "missing or invalid count";
            return false;
        }
        snapshot.count = *count_value;
        for (const auto& [key, member] :
             {std::pair<const char*, double*>{"min", &snapshot.min},
              {"max", &snapshot.max},
              {"last", &snapshot.last}}) {
            const json_value* field = value.find(key);
            const auto number =
                field != nullptr ? field->as_number() : std::nullopt;
            if (!number) {
                error = position + "missing or invalid " + key;
                return false;
            }
            *member = *number;
        }
        const json_value* samples = value.find("samples");
        if (samples == nullptr || !samples->is_array()) {
            error = position + "missing samples array";
            return false;
        }
        for (const json_value& pair : samples->items) {
            if (!pair.is_array() || pair.items.size() != 2) {
                error = position + "sample is not a [tick, value] pair";
                return false;
            }
            const auto tick = pair.items[0].as_u64();
            const auto sample = pair.items[1].as_number();
            if (!tick || !sample) {
                error = position + "non-numeric sample pair";
                return false;
            }
            snapshot.samples.push_back({*tick, *sample});
        }
        const json_value* evicted = value.find("evicted");
        if (evicted == nullptr) {
            error = position + "missing evicted histogram";
            return false;
        }
        std::string reason;
        if (!load_histogram(*evicted, snapshot.evicted, reason)) {
            error = position + reason;
            return false;
        }
        artifact.series.push_back(std::move(snapshot));
    }

    // The alerts section is optional (a torn tail can cut it off); its
    // absence parses as "no alerting configured".
    const json_value* alerts = root.find("alerts");
    if (alerts == nullptr) {
        return true;
    }
    if (!alerts->is_object()) {
        error = "timeline: alerts is not an object";
        return false;
    }
    if (const json_value* rules = alerts->find("rules")) {
        artifact.alert_rules = rules->as_u64().value_or(0);
    }
    if (const json_value* firing = alerts->find("firing")) {
        if (!firing->is_array()) {
            error = "timeline: alerts.firing is not an array";
            return false;
        }
        for (const json_value& label : firing->items) {
            const auto text = label.as_string();
            if (!text) {
                error = "timeline: non-string firing label";
                return false;
            }
            artifact.firing.emplace_back(*text);
        }
    }
    if (const json_value* events = alerts->find("events")) {
        if (!events->is_array()) {
            error = "timeline: alerts.events is not an array";
            return false;
        }
        for (std::size_t i = 0; i < events->items.size(); ++i) {
            const json_value& entry = events->items[i];
            const std::string position =
                "timeline alert event " + std::to_string(i) + ": ";
            if (!entry.is_object()) {
                error = position + "not an object";
                return false;
            }
            alert_event event;
            const json_value* tick = entry.find("tick");
            const auto tick_value =
                tick != nullptr ? tick->as_u64() : std::nullopt;
            const json_value* rule = entry.find("rule");
            const auto rule_text =
                rule != nullptr ? rule->as_string() : std::nullopt;
            const json_value* series_name = entry.find("series");
            const auto series_text = series_name != nullptr
                                         ? series_name->as_string()
                                         : std::nullopt;
            const json_value* state = entry.find("state");
            const auto state_text =
                state != nullptr ? state->as_string() : std::nullopt;
            const json_value* measure = entry.find("value");
            const auto measure_value =
                measure != nullptr ? measure->as_number() : std::nullopt;
            if (!tick_value || !rule_text || !series_text || !state_text ||
                !measure_value) {
                error = position + "missing tick/rule/series/state/value";
                return false;
            }
            if (*state_text != "firing" && *state_text != "resolved") {
                error = position + "state is neither firing nor resolved";
                return false;
            }
            event.tick = *tick_value;
            event.rule = std::string(*rule_text);
            event.series = std::string(*series_text);
            event.firing = *state_text == "firing";
            event.value = *measure_value;
            artifact.events.push_back(std::move(event));
        }
    }
    return true;
}

} // namespace

std::optional<timeline_artifact> load_timeline(std::string_view text,
                                               std::string& error) {
    json_parse_result parsed = parse_json(text);
    bool torn = false;
    if (!parsed.value) {
        // Distinguish a torn tail (strict prefix of a well-formed
        // document) from corruption: close the complete-line prefix and
        // retry.  Only an end-of-input tear gets this second chance.
        const std::string original_error = parsed.error;
        const auto repaired = close_torn_tail(text);
        if (repaired) {
            parsed = parse_json(*repaired);
            torn = true;
        }
        if (!parsed.value) {
            error = parse_failed_at_end(original_error, text.size())
                        ? "timeline holds only a truncated tail (still "
                          "being written?)"
                        : tagged("timeline", original_error);
            return std::nullopt;
        }
    }
    timeline_artifact artifact;
    artifact.truncated_tail = torn;
    if (!parse_timeline_document(*parsed.value, artifact, error)) {
        if (torn) {
            error = "timeline holds only a truncated tail (still being "
                    "written?)";
        }
        return std::nullopt;
    }
    if (torn && artifact.series.empty()) {
        error =
            "timeline holds only a truncated tail (still being written?)";
        return std::nullopt;
    }
    return artifact;
}

std::optional<timeline_artifact> load_timeline_file(const std::string& path,
                                                    std::string& error) {
    const auto text = read_file(path, error);
    if (!text) {
        return std::nullopt;
    }
    auto artifact = load_timeline(*text, error);
    if (!artifact) {
        error = tagged(path, error);
    }
    return artifact;
}

// --- status -------------------------------------------------------------

namespace {

bool require_u64(const json_value& root, std::string_view key,
                 std::uint64_t& out, std::string& error) {
    const json_value* value = root.find(key);
    const auto parsed = value != nullptr ? value->as_u64() : std::nullopt;
    if (!parsed) {
        error = "status: missing or invalid '" + std::string(key) + "'";
        return false;
    }
    out = *parsed;
    return true;
}

} // namespace

std::optional<status_artifact> load_status(std::string_view text,
                                           std::string& error) {
    json_parse_result parsed = parse_json(text);
    if (!parsed.value) {
        error = tagged("status", parsed.error);
        return std::nullopt;
    }
    const json_value& root = *parsed.value;
    if (!root.is_object()) {
        error = "status: top level is not an object";
        return std::nullopt;
    }
    status_artifact status;
    if (const json_value* campaign = root.find("campaign")) {
        if (const auto name = campaign->as_string()) {
            status.campaign = std::string(*name);
        }
    }
    const json_value* running = root.find("running");
    if (running == nullptr ||
        running->type != json_value::kind::boolean) {
        error = "status: missing or invalid 'running'";
        return std::nullopt;
    }
    status.running = running->boolean;
    if (!require_u64(root, "tasks_total", status.tasks_total, error) ||
        !require_u64(root, "tasks_done", status.tasks_done, error) ||
        !require_u64(root, "retries", status.retries, error) ||
        !require_u64(root, "injected_faults", status.injected_faults,
                     error) ||
        !require_u64(root, "aborted_rig", status.aborted_rig, error) ||
        !require_u64(root, "replayed", status.replayed, error) ||
        !require_u64(root, "rig_downtime_ms", status.downtime_ms, error)) {
        return std::nullopt;
    }
    if (const json_value* fleet = root.find("fleet")) {
        // Fleet snapshots extend the heartbeat schema; the degraded
        // quarantine is the part consumers must see to not trust stale
        // characterization (optional: plain heartbeats lack it).
        if (fleet->is_object()) {
            if (const json_value* degraded = fleet->find("degraded")) {
                if (!degraded->is_object()) {
                    error = "status: fleet.degraded is not an object";
                    return std::nullopt;
                }
                if (const json_value* cohorts = degraded->find("cohorts")) {
                    status.degraded_cohorts = cohorts->as_u64().value_or(0);
                }
                if (const json_value* nodes = degraded->find("nodes")) {
                    status.degraded_nodes = nodes->as_u64().value_or(0);
                }
            }
            // The observatory rollup is newer than the degraded section:
            // snapshots that predate it (or ran with the timeline off)
            // simply lack the key, and `timeline_present` stays false.
            if (const json_value* timeline = fleet->find("timeline")) {
                if (!timeline->is_object()) {
                    error = "status: fleet.timeline is not an object";
                    return std::nullopt;
                }
                status.timeline_present = true;
                if (const json_value* series = timeline->find("series")) {
                    status.timeline_series = series->as_u64().value_or(0);
                }
                if (const json_value* samples =
                        timeline->find("samples")) {
                    status.timeline_samples = samples->as_u64().value_or(0);
                }
                if (const json_value* rules = timeline->find("rules")) {
                    status.timeline_rules = rules->as_u64().value_or(0);
                }
                if (const json_value* events = timeline->find("events")) {
                    status.timeline_events = events->as_u64().value_or(0);
                }
                if (const json_value* firing = timeline->find("firing")) {
                    if (!firing->is_array()) {
                        error = "status: fleet.timeline.firing is not an "
                                "array";
                        return std::nullopt;
                    }
                    for (const json_value& label : firing->items) {
                        const auto text = label.as_string();
                        if (!text) {
                            error = "status: non-string firing label";
                            return std::nullopt;
                        }
                        status.timeline_firing.emplace_back(*text);
                    }
                }
            }
        }
    }
    if (const json_value* live = root.find("live")) {
        if (!live->is_object()) {
            error = "status: 'live' is not an object";
            return std::nullopt;
        }
        if (const json_value* workers = live->find("workers")) {
            if (const auto count = workers->as_i64()) {
                status.workers = static_cast<int>(*count);
            }
        }
        if (const json_value* tasks = live->find("worker_task")) {
            if (!tasks->is_array()) {
                error = "status: live.worker_task is not an array";
                return std::nullopt;
            }
            for (const json_value& task : tasks->items) {
                const auto index = task.as_i64();
                if (!index) {
                    error = "status: non-integer live.worker_task entry";
                    return std::nullopt;
                }
                status.worker_task.push_back(*index);
            }
        }
        if (const json_value* wall = live->find("wall_elapsed_s")) {
            if (const auto seconds = wall->as_number()) {
                status.wall_elapsed_s = *seconds;
            }
        }
    }
    return status;
}

std::optional<status_artifact> load_status_file(const std::string& path,
                                                std::string& error) {
    const auto text = read_file(path, error);
    if (!text) {
        return std::nullopt;
    }
    auto status = load_status(*text, error);
    if (!status) {
        error = tagged(path, error);
    }
    return status;
}

} // namespace gb::report
