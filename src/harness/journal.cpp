#include "harness/journal.hpp"

#include <istream>
#include <ostream>

#include "harness/chaos/chaos.hpp"
#include "harness/fault_injection.hpp"
#include "harness/logfile.hpp"
#include "util/contracts.hpp"
#include "util/wire.hpp"

namespace gb {

namespace {

constexpr std::string_view task_prefix = "task=";

template <typename Replay>
Replay replay_journal(std::istream& in) {
    Replay replay;
    std::string line;
    while (std::getline(in, line)) {
        if (in.eof()) {
            // The line had no trailing newline: a live writer may still be
            // mid-append, so the bytes are a partial record, not
            // corruption.  Never parse them (a prefix of a record can
            // itself look like a record).
            replay.truncated_tail = !line.empty();
            break;
        }
        if (line.empty()) {
            continue;
        }
        std::size_t index = 0;
        std::string_view payload;
        typename decltype(replay.completed)::mapped_type record;
        if (parse_journal_prefix(line, index, payload) &&
            parse_log_line(payload, record)) {
            replay.completed[index] = std::move(record);
        } else {
            ++replay.skipped;
        }
    }
    return replay;
}

} // namespace

campaign_journal::campaign_journal(const std::string& path)
    : file_(path, std::ios::out | std::ios::app), sink_(&file_) {
    GB_EXPECTS(file_.is_open());
}

campaign_journal::campaign_journal(std::ostream& sink) : sink_(&sink) {}

void campaign_journal::set_chaos(chaos_plan* chaos) {
    std::lock_guard<std::mutex> lock(mutex_);
    chaos_ = chaos;
}

void campaign_journal::append(std::size_t task_index, std::string_view line,
                              const fault_plan* faults) {
    std::string full;
    full += task_prefix;
    full += std::to_string(task_index);
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
        if (const auto tear =
                chaos_->on_journal_append(bytes_written_, full.size())) {
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

std::uint64_t campaign_journal::bytes_written() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_written_;
}

bool parse_journal_prefix(std::string_view line, std::size_t& task_index,
                          std::string_view& payload) {
    if (!line.starts_with(task_prefix)) {
        return false;
    }
    const std::string_view rest = line.substr(task_prefix.size());
    const std::size_t space = rest.find(' ');
    if (space == std::string_view::npos || space == 0) {
        return false;
    }
    if (!parse_int(rest.substr(0, space), task_index)) {
        return false;
    }
    payload = rest.substr(space + 1);
    return true;
}

cpu_journal_replay replay_cpu_journal(std::istream& in) {
    return replay_journal<cpu_journal_replay>(in);
}

dram_journal_replay replay_dram_journal(std::istream& in) {
    return replay_journal<dram_journal_replay>(in);
}

} // namespace gb
