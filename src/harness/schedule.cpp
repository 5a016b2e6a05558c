#include "harness/schedule.hpp"

#include <algorithm>

namespace gb {

list_scheduler::list_scheduler(int workers) {
    const auto count = static_cast<std::size_t>(std::max(1, workers));
    finish_.assign(count, 0);
    loads_.assign(count, {});
}

scheduled_task list_scheduler::assign(std::uint64_t duration_ticks) {
    std::size_t pick = 0;
    for (std::size_t w = 1; w < finish_.size(); ++w) {
        if (finish_[w] < finish_[pick]) {
            pick = w;
        }
    }
    scheduled_task task;
    task.worker = static_cast<int>(pick);
    task.start_ticks = finish_[pick];
    finish_[pick] += duration_ticks;
    task.finish_ticks = finish_[pick];
    loads_[pick].busy_ticks += duration_ticks;
    ++loads_[pick].tasks;
    serial_ += duration_ticks;
    return task;
}

void list_scheduler::barrier() {
    const std::uint64_t now = makespan();
    std::fill(finish_.begin(), finish_.end(), now);
}

std::uint64_t list_scheduler::makespan() const {
    std::uint64_t latest = 0;
    for (const std::uint64_t f : finish_) {
        latest = std::max(latest, f);
    }
    return latest;
}

} // namespace gb
