// Set-associative cache hierarchy simulator.
//
// The X-Gene2's hierarchy (32 KB L1D per core, 256 KB L2 per PMD, 8 MB L3
// behind the central switch) determines where a memory instruction's data
// lives, which in turn sets its stall time and current signature.  The ISA
// layer abstracts this with explicit load_l1/load_l2/... classes -- the way
// the paper's viruses use pointer-chase buffers sized to each level.  This
// module provides the underlying machinery: true-LRU set-associative
// caches, an inclusive three-level hierarchy, and stream drivers, so that
// the abstraction can be *derived* (which buffer size hits where) instead
// of assumed, and so cache-resident vs streaming workloads can be modelled
// from address traces.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/contracts.hpp"

namespace gb {

struct cache_config {
    std::int64_t size_bytes = 32 * 1024;
    int line_bytes = 64;
    int ways = 8;

    [[nodiscard]] std::int64_t sets() const {
        return size_bytes / (static_cast<std::int64_t>(line_bytes) * ways);
    }
    void validate() const;
};

/// One set-associative, write-allocate, write-back cache level with true
/// LRU replacement.
class cache_level {
public:
    explicit cache_level(cache_config config);

    struct access_result {
        bool hit = false;
        bool evicted_dirty = false;      ///< writeback generated
        std::uint64_t evicted_line = 0;  ///< line address if evicted
        bool evicted_valid = false;
    };

    /// Access one byte address; fills on miss (evicting LRU if needed).
    access_result access(std::uint64_t address, bool is_write);

    /// True if the line holding `address` is present (no LRU update).
    [[nodiscard]] bool contains(std::uint64_t address) const;

    void reset();

    [[nodiscard]] const cache_config& config() const { return config_; }
    [[nodiscard]] std::uint64_t accesses() const { return accesses_; }
    [[nodiscard]] std::uint64_t hits() const { return hits_; }
    [[nodiscard]] std::uint64_t misses() const { return accesses_ - hits_; }
    [[nodiscard]] std::uint64_t writebacks() const { return writebacks_; }

private:
    struct way_entry {
        std::uint64_t tag = 0;
        std::uint32_t last_use = 0;
        bool valid = false;
        bool dirty = false;
    };

    cache_config config_;
    std::int64_t set_count_;
    std::vector<way_entry> ways_; ///< set-major [set * ways + way]
    std::uint32_t clock_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t writebacks_ = 0;
};

/// Where an access was served from.
enum class hit_level : std::uint8_t { l1, l2, l3, memory };

[[nodiscard]] std::string_view to_string(hit_level level);

/// Three-level hierarchy with fill-on-miss at every level (the normally
/// inclusive behaviour of the X-Gene2 hierarchy).
class cache_hierarchy {
public:
    cache_hierarchy(cache_config l1, cache_config l2, cache_config l3);

    /// X-Gene2 data-side hierarchy: 32 KB / 256 KB / 8 MB.
    [[nodiscard]] static cache_hierarchy xgene2();

    [[nodiscard]] hit_level access(std::uint64_t address, bool is_write);

    [[nodiscard]] const cache_level& l1() const { return l1_; }
    [[nodiscard]] const cache_level& l2() const { return l2_; }
    [[nodiscard]] const cache_level& l3() const { return l3_; }

    /// Load-to-use latency of a level in core cycles at 2.4 GHz (matches
    /// the ISA layer's stall model).
    [[nodiscard]] static int latency_cycles(hit_level level);

private:
    cache_level l1_;
    cache_level l2_;
    cache_level l3_;
};

} // namespace gb
