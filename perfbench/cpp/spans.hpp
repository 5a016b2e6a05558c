// Wall-clock span recorder for the traced benchmark run.
//
// Every span is (name, start, end, parent, op id).  Spans opened on the
// driver thread nest through an explicit stack; spans recorded from
// engine worker threads (probe calls) are appended under a mutex with an
// explicit parent.  Everything stays in memory until `write` dumps it at
// exit, so recording costs one clock read and one vector append per edge.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::int64_t op = -1;
    /// Calls the span covers (a batch of tiny calls is one span).
    std::uint64_t calls = 1;
};

/// Per-name totals over closed spans.
struct span_totals {
    std::uint64_t calls = 0;
    double total_ms = 0.0;

    [[nodiscard]] double ms_per_call() const {
        return calls == 0 ? 0.0 : total_ms / static_cast<double>(calls);
    }
};

class span_log {
public:
    /// Open a nested span on the driver thread; returns its id.
    int open(const char* name, std::int64_t op, std::uint64_t calls = 1);
    void close(int id);
    /// Record a finished span from any thread.
    void add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
             int parent, std::int64_t op);

    [[nodiscard]] const std::vector<span>& spans() const { return spans_; }
    [[nodiscard]] const span& at(int id) const {
        return spans_[static_cast<std::size_t>(id)];
    }
    /// Duration minus the part of it covered by direct children.
    [[nodiscard]] std::vector<double> self_ns() const;
    [[nodiscard]] std::map<std::string, span_totals> totals() const;
    /// One JSON object per line: name, start/end (ns), parent, op, calls,
    /// self (ns).  Returns false on I/O error.
    bool write(const std::string& path) const;

private:
    std::mutex mutex_;
    std::vector<span> spans_;
    std::vector<int> stack_;
};

/// RAII span; a null log makes it free apart from the branch.
class scoped_span {
public:
    scoped_span(span_log* log, const char* name, std::int64_t op,
                std::uint64_t calls = 1)
        : log_(log), id_(log != nullptr ? log->open(name, op, calls) : -1) {}
    ~scoped_span() {
        if (log_ != nullptr) {
            log_->close(id_);
        }
    }
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

    [[nodiscard]] int id() const { return id_; }

private:
    span_log* log_;
    int id_;
};

/// Total length of the union of [start, end) intervals.
[[nodiscard]] std::int64_t union_ns(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals);

} // namespace perfbench
