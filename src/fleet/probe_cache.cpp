#include "fleet/probe_cache.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace gb::fleet {

namespace {
constexpr std::size_t npos = static_cast<std::size_t>(-1);
} // namespace

std::size_t probe_cache::home_slot(std::uint64_t content,
                                   std::size_t slot_count) {
    // Content ids are hashes already, but tests and hand-written journals
    // use small ones; one splitmix64 round spreads those too.
    std::uint64_t state = content;
    return static_cast<std::size_t>(splitmix64(state)) & (slot_count - 1);
}

std::size_t probe_cache::find(std::uint64_t content) const {
    if (slots_.empty()) {
        return npos;
    }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = home_slot(content, slots_.size());;
         s = (s + 1) & mask) {
        const std::uint32_t stored = slots_[s];
        if (stored == 0) {
            return npos;
        }
        if (at(stored - 1).content == content) {
            return stored - 1;
        }
    }
}

void probe_cache::place(std::uint64_t content, std::uint32_t position) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t s = home_slot(content, slots_.size());
    while (slots_[s] != 0) {
        s = (s + 1) & mask;
    }
    slots_[s] = position + 1;
}

std::uint32_t probe_cache::intern(const std::vector<std::uint32_t>& rigs) {
    const auto [it, added] = rig_set_ids_.try_emplace(
        rigs, static_cast<std::uint32_t>(rig_sets_.size()));
    if (added) {
        rig_sets_.push_back(&it->first);
    }
    return it->second;
}

const probe_result* probe_cache::lookup(std::uint64_t content) {
    const std::size_t position = find(content);
    if (position == npos) {
        ++misses_;
        return nullptr;
    }
    ++hits_;
    return &at(position).result;
}

const probe_result* probe_cache::peek(std::uint64_t content) const {
    const std::size_t position = find(content);
    return position == npos ? nullptr : &at(position).result;
}

void probe_cache::insert(std::uint64_t content, const probe_result& result,
                         const std::vector<std::uint32_t>& rigs) {
    const std::uint32_t rig_set = intern(rigs);
    if (const std::size_t position = find(content); position != npos) {
        entry& slot = at(position);
        slot.result = result;
        slot.rigs = rig_set;
        return;
    }
    GB_EXPECTS(size_ < std::numeric_limits<std::uint32_t>::max() - 1);
    // Keep the index at most half full: grow (and re-place every entry)
    // before the insert that would cross it.
    if (2 * (size_ + 1) > slots_.size()) {
        slots_.assign(std::max(min_slots, 2 * slots_.size()), 0);
        for (std::size_t p = 0; p < size_; ++p) {
            place(at(p).content, static_cast<std::uint32_t>(p));
        }
    }
    if (size_ == chunks_.size() * chunk_entries) {
        chunks_.push_back(std::make_unique<entry[]>(chunk_entries));
    }
    const auto position = static_cast<std::uint32_t>(size_++);
    at(position) = entry{content, result, rig_set, false};
    place(content, position);
}

const std::vector<std::uint32_t>* probe_cache::provenance(
    std::uint64_t content) const {
    const std::size_t position = find(content);
    return position == npos ? nullptr : rig_sets_[at(position).rigs];
}

void probe_cache::repair(std::uint64_t content, const probe_result& result,
                         const std::vector<std::uint32_t>& rigs) {
    insert(content, result, rigs);
    ++repaired_;
}

bool probe_cache::mark_requested(std::uint64_t content) {
    const std::size_t position = find(content);
    GB_EXPECTS(position != npos);
    const bool was = std::exchange(at(position).requested, true);
    requested_ += was ? 0 : 1;
    return was;
}

} // namespace gb::fleet
