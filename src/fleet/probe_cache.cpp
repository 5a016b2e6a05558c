#include "fleet/probe_cache.hpp"

#include <utility>

namespace gb::fleet {

const probe_result* probe_cache::lookup(std::uint64_t content) {
    const auto it = entries_.find(content);
    if (it == entries_.end()) {
        ++misses_;
        return nullptr;
    }
    ++hits_;
    return &it->second.result;
}

const probe_result* probe_cache::peek(std::uint64_t content) const {
    const auto it = entries_.find(content);
    return it == entries_.end() ? nullptr : &it->second.result;
}

void probe_cache::insert(std::uint64_t content, const probe_result& result,
                         std::vector<std::uint32_t> rigs) {
    entry& slot = entries_[content];
    slot.result = result;
    slot.rigs = std::move(rigs);
}

const std::vector<std::uint32_t>* probe_cache::provenance(
    std::uint64_t content) const {
    const auto it = entries_.find(content);
    return it == entries_.end() ? nullptr : &it->second.rigs;
}

void probe_cache::repair(std::uint64_t content, const probe_result& result,
                         std::vector<std::uint32_t> rigs) {
    insert(content, result, std::move(rigs));
    ++repaired_;
}

bool probe_cache::mark_requested(std::uint64_t content) {
    const bool was = std::exchange(entries_.at(content).requested, true);
    requested_ += was ? 0 : 1;
    return was;
}

} // namespace gb::fleet
