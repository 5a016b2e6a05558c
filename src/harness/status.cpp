#include "harness/status.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <type_traits>

#include "harness/chaos/chaos.hpp"
#include "harness/report/json.hpp"
#include "util/wire.hpp"

namespace gb {

namespace {

// --- the snapshot format ---------------------------------------------------
//
// Each JSON object is declared once, as the fields its struct visits in
// order; the writer and the reader walk the same declaration.  A field is
// a bool, an integer, a double (shortest round-trip form), a string, a
// vector (array), a pair (two-element array), an optional (the key is
// omitted when empty) or another declared object.

template <typename T>
struct json_object;

/// The `live` object; campaign_status keeps its fields flat.
template <typename Status>
struct live_view {
    Status& status;
};

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

template <typename T, template <typename...> typename Of>
inline constexpr bool is_a = false;
template <template <typename...> typename Of, typename... Args>
inline constexpr bool is_a<Of<Args...>, Of> = true;

/// One walk of the declarations, in either direction.  Writing appends
/// each byte to `out`.  Reading matches each byte against `text` at `pos`
/// and stops at the first that does not fit (`ok` false); it is lenient
/// only where the final re-rendering is the judge: a number is any token
/// its parser accepts ("036" reads as 36).
template <bool Reading>
struct json_codec {
    std::string out;
    std::string_view text;
    std::size_t pos = 0;
    bool ok = true;

    [[nodiscard]] bool at(std::string_view bytes) const {
        return ok && text.substr(pos).starts_with(bytes);
    }

    void punct(std::string_view bytes) {
        if constexpr (Reading) {
            ok = at(bytes);
            pos += ok ? bytes.size() : 0;
        } else {
            out += bytes;
        }
    }

    /// An object's members in declared order: `{"key":` opens the first,
    /// `,"key":` each later one.  An optional member is written when set
    /// and read when its key comes next.
    struct members {
        json_codec& codec;
        bool first = true;

        template <typename T>
        void operator()(std::string_view key, T&& value) {
            const std::string_view open = first ? "{\"" : ",\"";
            if constexpr (!is_a<std::remove_cvref_t<T>, std::optional>) {
                codec.punct(open);
                codec.punct(key);
                codec.punct("\":");
                first = false;
                codec.value(value);
            } else if constexpr (Reading) {
                const std::string_view rest = codec.text.substr(codec.pos);
                if (codec.ok && rest.starts_with(open) &&
                    rest.substr(2).starts_with(key) &&
                    rest.substr(2 + key.size()).starts_with("\":")) {
                    (*this)(key, value.emplace());
                }
            } else if (value) {
                (*this)(key, *value);
            }
        }
    };

    template <typename T>
    void value(T& v) {
        using V = std::remove_const_t<T>;
        if (!ok) {
            return;
        }
        if constexpr (is_a<V, std::vector>) {
            punct("[");
            if constexpr (Reading) {
                while (ok && !at("]")) {
                    if (!v.empty()) {
                        punct(",");
                    }
                    value(v.emplace_back());
                }
            } else {
                for (std::size_t i = 0; i < v.size(); ++i) {
                    if (i > 0) {
                        punct(",");
                    }
                    value(v[i]);
                }
            }
            punct("]");
        } else if constexpr (is_a<V, std::pair>) {
            punct("[");
            value(v.first);
            punct(",");
            value(v.second);
            punct("]");
        } else if constexpr (std::is_class_v<V> &&
                             !std::is_same_v<V, std::string>) {
            members fields{*this};
            json_object<V>::fields(fields, v);
            punct("}");
        } else if constexpr (Reading) {
            read_scalar(v);
        } else if constexpr (std::is_same_v<V, bool>) {
            out += v ? "true" : "false";
        } else if constexpr (std::is_integral_v<V>) {
            out += std::to_string(v);
        } else if constexpr (std::is_same_v<V, double>) {
            out += format_double(v);
        } else {
            out += '"';
            out += json_escape(v);
            out += '"';
        }
    }

    template <typename V>
    void read_scalar(V& v) {
        if constexpr (std::is_same_v<V, bool>) {
            v = at("true");
            punct(v ? "true" : "false");
        } else if constexpr (std::is_integral_v<V>) {
            ok = parse_int(token("-0123456789"), v);
        } else if constexpr (std::is_same_v<V, double>) {
            ok = parse_double(token("-+.0123456789e"), v);
        } else {
            // The literal runs to the first quote no backslash escapes.
            std::size_t end = pos + 1;
            while (end < text.size() && text[end] != '"') {
                end += text[end] == '\\' ? 2 : 1;
            }
            const report::json_parse_result literal =
                report::parse_json(text.substr(pos, end + 1 - pos));
            ok = literal.value && literal.value->as_string().has_value();
            if (ok) {
                v = literal.value->text;
                pos = end + 1;
            }
        }
    }

    /// The longest run of `chars` at the cursor, consumed.
    std::string_view token(std::string_view chars) {
        const std::size_t end =
            std::min(text.find_first_not_of(chars, pos), text.size());
        const std::string_view run = text.substr(pos, end - pos);
        pos = end;
        return run;
    }
};

} // namespace

std::string write_status_json(const campaign_status& status) {
    json_codec<false> writer;
    writer.value(status);
    writer.out += '\n';
    return std::move(writer.out);
}

std::optional<campaign_status> read_status_json(std::string_view text,
                                                std::string& error) {
    json_codec<true> reader{{}, text};
    campaign_status status;
    reader.value(status);
    reader.punct("\n");
    // What was read re-renders as far as the text fits the format, so the
    // first byte the two differ in is where the text left it.
    const std::string canonical = write_status_json(status);
    if (reader.ok && canonical == text) {
        return status;
    }
    const auto differs =
        std::mismatch(text.begin(), text.end(), canonical.begin(),
                      canonical.end())
            .first;
    error = "status: byte " + std::to_string(differs - text.begin()) +
            ": not what the status writer renders";
    return std::nullopt;
}

bool publish_atomic(const std::string& path, std::string_view bytes,
                    chaos_plan* chaos) {
    // rename(2) is atomic on POSIX, so a reader polling `path` sees either
    // the previous file or this one, never a prefix.  One fixed temp name
    // suffices: every published file has exactly one writer.  The temp is
    // removed only on an I/O failure -- a chaos kill must leave its torn
    // temp on disk, like a real crash would.
    const std::string temp = path + ".tmp";
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) {
        return false;
    }
    if (chaos != nullptr) {
        if (const auto tear = chaos->on_torn_write(chaos_site::snapshot_temp,
                                                    bytes.size())) {
            out << bytes.substr(0, static_cast<std::size_t>(tear->keep));
            out.flush();
            chaos->kill(tear->site);
        }
    }
    out << bytes;
    out.close();
    if (!out) {
        std::remove(temp.c_str());
        return false;
    }
    if (chaos != nullptr && chaos->on_snapshot_rename()) {
        chaos->kill(chaos_site::snapshot_rename);
    }
    if (std::rename(temp.c_str(), path.c_str()) != 0) {
        std::remove(temp.c_str());
        return false;
    }
    return true;
}

bool publish_status(const std::string& path, const campaign_status& status) {
    return publish_atomic(path, write_status_json(status));
}

} // namespace gb
