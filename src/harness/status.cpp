#include "harness/status.hpp"

#include <cstdio>
#include <fstream>

#include "harness/chaos/chaos.hpp"
#include "util/wire.hpp"

namespace gb {

std::string write_status_json(const campaign_status& status) {
    std::string out = "{\"campaign\":\"";
    out += json_escape(status.campaign);
    out += "\",\"running\":";
    out += status.running ? "true" : "false";
    const auto field = [&out](const char* name, std::uint64_t value) {
        out += ",\"";
        out += name;
        out += "\":";
        out += std::to_string(value);
    };
    field("tasks_total", status.tasks_total);
    field("tasks_done", status.tasks_done);
    field("retries", status.retries);
    field("injected_faults", status.injected_faults);
    field("aborted_rig", status.aborted_rig);
    field("replayed", status.replayed);
    field("rig_downtime_ms", status.rig_downtime_ms);
    if (status.running) {
        out += ",\"live\":{\"workers\":";
        out += std::to_string(status.workers);
        out += ",\"worker_task\":[";
        for (std::size_t w = 0; w < status.worker_task.size(); ++w) {
            if (w > 0) {
                out += ',';
            }
            out += std::to_string(status.worker_task[w]);
        }
        out += "],\"wall_elapsed_s\":";
        out += format_double(status.wall_elapsed_s);
        out += "}";
    }
    out += "}\n";
    return out;
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
        if (const auto tear = chaos->on_snapshot_temp(bytes.size())) {
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
