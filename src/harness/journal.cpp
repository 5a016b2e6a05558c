#include "harness/journal.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>

#include "harness/chaos/chaos.hpp"
#include "harness/fault_injection.hpp"
#include "harness/logfile.hpp"
#include "util/wire.hpp"

namespace gb {

namespace {

/// The `task=N` serial that opens every journal line, one space before
/// the record it frames.
struct task_format {
    static constexpr std::string_view kind = "";
    static void fields(auto& field, auto& task_index) {
        field("task", task_index);
    }
};

} // namespace

campaign_journal::campaign_journal(const std::string& path)
    : file_(path, std::ios::out | std::ios::app), sink_(&file_) {
    if (!file_.is_open()) {
        throw std::runtime_error("cannot open journal " + path);
    }
}

campaign_journal::campaign_journal(std::ostream& sink) : sink_(&sink) {}

void campaign_journal::set_chaos(chaos_plan* chaos) {
    std::lock_guard<std::mutex> lock(mutex_);
    chaos_ = chaos;
}

void campaign_journal::append(std::size_t task_index, std::string_view line,
                              const fault_plan* faults,
                              std::optional<chaos_site> seam) {
    std::string full = render_record<task_format>(task_index);
    full += ' ';
    full += line;
    const bool corrupt =
        faults != nullptr && faults->corrupts_log(task_index);
    if (corrupt) {
        full = faults->corrupt_line(task_index, full);
    }
    full += '\n';
    std::lock_guard<std::mutex> lock(mutex_);
    if (chaos_ != nullptr) {
        std::optional<chaos_tear> tear =
            seam ? chaos_->on_torn_write(*seam, full.size()) : std::nullopt;
        if (!tear) {
            tear = chaos_->on_journal_append(bytes_written_, full.size());
        }
        if (tear) {
            // Torn write: a prefix of the line reaches disk, the trailing
            // newline never does, and the "process" dies mid-append.  The
            // warm path detects the newline-less tail and self-heals by
            // truncating it.
            *sink_ << std::string_view(full).substr(
                0, static_cast<std::size_t>(tear->keep));
            sink_->flush();
            chaos_->kill(tear->site);
        }
    }
    *sink_ << full;
    sink_->flush(); // the journal's whole point: survive a kill -9
    bytes_written_ += full.size();
    ++appended_;
    if (corrupt) {
        ++corrupted_;
    }
}

std::uint64_t campaign_journal::appended() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return appended_;
}

std::uint64_t campaign_journal::corrupted() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return corrupted_;
}

bool parse_journal_prefix(std::string_view line, std::size_t& task_index,
                          std::string_view& payload) {
    const std::size_t space = line.find(' ');
    if (space == std::string_view::npos ||
        !parse_record<task_format>(line.substr(0, space), task_index)) {
        return false;
    }
    payload = line.substr(space + 1);
    return true;
}

journal_replay replay_journal(std::istream& in) {
    journal_replay replay;
    for_each_journal_line(in, [&](const journal_line& line) {
        if (line.torn) {
            replay.truncated_tail = true;
            return;
        }
        if (line.text.empty()) {
            return;
        }
        ++replay.lines;
        if (line.framed) {
            run_record cpu_record;
            if (parse_log_line(line.payload, cpu_record)) {
                replay.cpu[line.task_index] = std::move(cpu_record);
                return;
            }
            dram_run_record dram_record;
            if (parse_log_line(line.payload, dram_record)) {
                replay.dram[line.task_index] = std::move(dram_record);
                return;
            }
        }
        ++replay.skipped;
    });
    return replay;
}

} // namespace gb
