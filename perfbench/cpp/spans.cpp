#include "spans.hpp"

#include <algorithm>
#include <fstream>

namespace perfbench {

int span_log::open(const char* name, std::int64_t op, std::uint64_t calls) {
    const std::lock_guard<std::mutex> lock(mutex_);
    span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op;
    s.calls = calls;
    spans_.push_back(s);
    const int id = static_cast<int>(spans_.size() - 1);
    stack_.push_back(id);
    // Read the clock last so the bookkeeping above is not charged.
    spans_.back().start_ns = now_ns();
    return id;
}

void span_log::close(int id) {
    const std::int64_t end = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ns = end;
    if (!stack_.empty() && stack_.back() == id) {
        stack_.pop_back();
    }
}

void span_log::add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, int parent, std::int64_t op) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span{name, start_ns, end_ns, parent, op, 1});
}

std::vector<double> span_log::self_ns() const {
    // Children may overlap (probe spans from parallel engine workers), so
    // a span loses the union of its children's intervals, not their sum.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
        spans_.size());
    for (const span& s : spans_) {
        if (s.parent >= 0) {
            children[static_cast<std::size_t>(s.parent)].emplace_back(
                s.start_ns, s.end_ns);
        }
    }
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                                      union_ns(std::move(children[i])));
    }
    return self;
}

std::map<std::string, span_totals> span_log::totals() const {
    std::map<std::string, span_totals> out;
    for (const span& s : spans_) {
        span_totals& t = out[s.name];
        t.calls += s.calls;
        t.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
    return out;
}

bool span_log::write(const std::string& path) const {
    std::ofstream out(path);
    const std::vector<double> self = self_ns();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const span& s = spans_[i];
        out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
            << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
            << ",\"op\":" << s.op << ",\"calls\":" << s.calls
            << ",\"self_ns\":" << static_cast<std::int64_t>(self[i])
            << "}\n";
    }
    return static_cast<bool>(out);
}

std::int64_t union_ns(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
    std::sort(intervals.begin(), intervals.end());
    std::int64_t total = 0;
    std::int64_t cur_start = 0;
    std::int64_t cur_end = 0;
    bool open = false;
    for (const auto& [start, end] : intervals) {
        if (!open || start > cur_end) {
            if (open) {
                total += cur_end - cur_start;
            }
            cur_start = start;
            cur_end = end;
            open = true;
        } else {
            cur_end = std::max(cur_end, end);
        }
    }
    if (open) {
        total += cur_end - cur_start;
    }
    return total;
}

} // namespace perfbench
