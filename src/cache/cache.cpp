#include "cache/cache.hpp"

#include <bit>

namespace gb {

void cache_config::validate() const {
    GB_EXPECTS(line_bytes > 0 &&
               std::has_single_bit(static_cast<unsigned>(line_bytes)));
    GB_EXPECTS(ways > 0);
    GB_EXPECTS(size_bytes > 0);
    GB_EXPECTS(size_bytes % (static_cast<std::int64_t>(line_bytes) * ways) ==
               0);
    GB_EXPECTS(std::has_single_bit(static_cast<std::uint64_t>(sets())));
}

cache_level::cache_level(cache_config config)
    : config_(config), set_count_(config.sets()),
      ways_(static_cast<std::size_t>(set_count_ * config.ways)) {
    config.validate();
}

cache_level::access_result cache_level::access(std::uint64_t address,
                                               bool is_write) {
    const std::uint64_t line =
        address / static_cast<std::uint64_t>(config_.line_bytes);
    const auto set = static_cast<std::int64_t>(
        line & (static_cast<std::uint64_t>(set_count_) - 1));
    const std::uint64_t tag =
        line / static_cast<std::uint64_t>(set_count_);
    way_entry* base = &ways_[static_cast<std::size_t>(set * config_.ways)];

    ++accesses_;
    ++clock_;

    access_result result;
    way_entry* victim = base;
    for (int w = 0; w < config_.ways; ++w) {
        way_entry& entry = base[w];
        if (entry.valid && entry.tag == tag) {
            ++hits_;
            entry.last_use = clock_;
            entry.dirty = entry.dirty || is_write;
            result.hit = true;
            return result;
        }
        // Track LRU victim: invalid ways win immediately.
        if (!entry.valid) {
            victim = &entry;
        } else if (victim->valid && entry.last_use < victim->last_use) {
            victim = &entry;
        }
    }

    // Miss: fill into the victim way.
    if (victim->valid) {
        result.evicted_valid = true;
        result.evicted_line =
            victim->tag * static_cast<std::uint64_t>(set_count_) +
            static_cast<std::uint64_t>(set);
        if (victim->dirty) {
            result.evicted_dirty = true;
            ++writebacks_;
        }
    }
    victim->valid = true;
    victim->tag = tag;
    victim->last_use = clock_;
    victim->dirty = is_write;
    return result;
}

bool cache_level::contains(std::uint64_t address) const {
    const std::uint64_t line =
        address / static_cast<std::uint64_t>(config_.line_bytes);
    const auto set = static_cast<std::int64_t>(
        line & (static_cast<std::uint64_t>(set_count_) - 1));
    const std::uint64_t tag = line / static_cast<std::uint64_t>(set_count_);
    const way_entry* base =
        &ways_[static_cast<std::size_t>(set * config_.ways)];
    for (int w = 0; w < config_.ways; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            return true;
        }
    }
    return false;
}

void cache_level::reset() {
    for (way_entry& entry : ways_) {
        entry = way_entry{};
    }
    clock_ = 0;
    accesses_ = 0;
    hits_ = 0;
    writebacks_ = 0;
}

std::string_view to_string(hit_level level) {
    switch (level) {
    case hit_level::l1: return "L1";
    case hit_level::l2: return "L2";
    case hit_level::l3: return "L3";
    case hit_level::memory: return "memory";
    }
    return "?";
}

cache_hierarchy::cache_hierarchy(cache_config l1, cache_config l2,
                                 cache_config l3)
    : l1_(l1), l2_(l2), l3_(l3) {
    GB_EXPECTS(l1.size_bytes < l2.size_bytes);
    GB_EXPECTS(l2.size_bytes < l3.size_bytes);
}

cache_hierarchy cache_hierarchy::xgene2() {
    return cache_hierarchy(cache_config{32 * 1024, 64, 8},
                           cache_config{256 * 1024, 64, 8},
                           cache_config{8 * 1024 * 1024, 64, 16});
}

hit_level cache_hierarchy::access(std::uint64_t address, bool is_write) {
    if (l1_.access(address, is_write).hit) {
        return hit_level::l1;
    }
    if (l2_.access(address, false).hit) {
        return hit_level::l2;
    }
    if (l3_.access(address, false).hit) {
        return hit_level::l3;
    }
    return hit_level::memory;
}


int cache_hierarchy::latency_cycles(hit_level level) {
    // Matches the ISA stall model: L1 1 cycle, L2 8, L3 29, DRAM ~181 at
    // 2.4 GHz (75 ns).
    switch (level) {
    case hit_level::l1: return 1;
    case hit_level::l2: return 8;
    case hit_level::l3: return 29;
    case hit_level::memory: return 181;
    }
    return 0;
}

} // namespace gb
