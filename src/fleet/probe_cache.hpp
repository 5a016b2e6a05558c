// Content-addressed probe-result cache.
//
// A characterization probe is expensive (a full Vmin descent on real
// hardware, a chip-model analysis here) and its result depends only on
// its content id (fleet.hpp's probe_content).  The cache maps content id
// -> result so each distinct experiment executes once per service
// lifetime and fans out to every cohort, campaign and epoch that asks
// again -- the fleet-scale analogue of the profile cache in
// harness/profile_cache.hpp.
//
// Hit/miss counters are exact and deterministic: lookups happen at serial
// points of the campaign loop (between engine runs), in sorted cohort
// order, so tests assert equality, not bounds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

namespace gb::fleet {

/// One probe's outcome: the revealed safe supply requirement (guard
/// included) and the power picture that prices exploiting it.
struct probe_result {
    double requirement_mv = 0.0; ///< revealed Vmin + guard
    double power_nominal_w = 0.0; ///< at the manufacturer point
    double power_point_w = 0.0;   ///< at the revealed (binned) point
    /// Outcome bucket for the engine histogram / journal (e.g. the probed
    /// corner); negative means unbucketed.
    int bucket = -1;
};

/// Layout: fixed-size entries (content id, result, interned rig-set id,
/// requested bit -- 48 bytes) stored densely in insertion order, in
/// chunks of 256 that never move; an open-addressing index of 4-byte entry
/// positions (linear probing, at most half full, doubled on growth); and a
/// table of the distinct rig sets.  No entry owns a heap block, so a cache
/// of n entries costs about 48 n bytes plus 8-16 n of index.
class probe_cache {
public:
    /// Result for a content id, or nullptr.  Counts exactly one hit or
    /// one miss.  The pointer stays valid until the cache is destroyed
    /// (entry chunks never move); an overwrite changes the value behind
    /// it.
    [[nodiscard]] const probe_result* lookup(std::uint64_t content);

    /// Peek without touching the counters (state rendering, tests).
    [[nodiscard]] const probe_result* peek(std::uint64_t content) const;

    /// Insert or overwrite (re-probing the same content is idempotent by
    /// construction, so overwrite == insert; audit and blacklist repairs
    /// overwrite a poisoned value through here too) with the rigs that
    /// vouched for the value (the configured quorum's assigned rigs,
    /// sorted).
    /// Provenance drives blacklist repair: entries sourced only from
    /// blacklisted rigs re-execute.  An overwrite keeps the entry's
    /// requested bit.  The rig list is interned: entries with equal lists
    /// share one copy.
    void insert(std::uint64_t content, const probe_result& result,
                const std::vector<std::uint32_t>& rigs);

    /// The vouching rigs of an entry (null when absent): the interned
    /// list, equal to the one last inserted for the content.  Interned
    /// lists are never freed, so the pointer stays valid for the cache's
    /// lifetime (it goes stale only in meaning, when the entry is
    /// overwritten with a different list).
    [[nodiscard]] const std::vector<std::uint32_t>* provenance(
        std::uint64_t content) const;

    /// Mark an existing entry as requested this service lifetime; returns
    /// whether it already was (a repeat is a crash-invariant "scheduled
    /// hit", unlike a hit on a journal-restored entry).
    bool mark_requested(std::uint64_t content);

    [[nodiscard]] std::uint64_t hits() const { return hits_; }
    [[nodiscard]] std::uint64_t misses() const { return misses_; }
    [[nodiscard]] std::uint64_t size() const { return size_; }
    /// Entries marked by `mark_requested`.
    [[nodiscard]] std::uint64_t requested() const { return requested_; }
    /// Index slots (a power of two, or 0 before the first insert).
    [[nodiscard]] std::size_t index_slots() const { return slots_.size(); }

    /// The index slot a content id probes first in an index of
    /// `slot_count` slots (a power of two); collisions continue linearly.
    /// Public so tests can construct colliding ids.
    [[nodiscard]] static std::size_t home_slot(std::uint64_t content,
                                               std::size_t slot_count);

private:
    struct entry {
        std::uint64_t content = 0;
        probe_result result;
        std::uint32_t rigs = 0; ///< id into rig_sets_
        bool requested = false;
    };
    static_assert(sizeof(entry) <= 48, "entries stay heap-free and small");
    static constexpr std::size_t chunk_bits = 8;
    static constexpr std::size_t chunk_entries = std::size_t{1}
                                                 << chunk_bits;
    static constexpr std::size_t min_slots = 16;

    [[nodiscard]] entry& at(std::size_t position) {
        return chunks_[position >> chunk_bits]
                      [position & (chunk_entries - 1)];
    }
    [[nodiscard]] const entry& at(std::size_t position) const {
        return chunks_[position >> chunk_bits]
                      [position & (chunk_entries - 1)];
    }
    /// Position of a content's entry, or npos.
    [[nodiscard]] std::size_t find(std::uint64_t content) const;
    /// Index an entry position at the content's first free slot.
    void place(std::uint64_t content, std::uint32_t position);
    [[nodiscard]] std::uint32_t intern(
        const std::vector<std::uint32_t>& rigs);

    /// Entries in insertion order: position p lives at
    /// chunks_[p / chunk_entries][p % chunk_entries].
    std::vector<std::unique_ptr<entry[]>> chunks_;
    std::size_t size_ = 0;
    /// Entry position + 1 per slot; 0 marks an empty slot.
    std::vector<std::uint32_t> slots_;
    /// Interned rig lists: id -> list (a key of rig_set_ids_, whose map
    /// nodes never move).
    std::map<std::vector<std::uint32_t>, std::uint32_t> rig_set_ids_;
    std::vector<const std::vector<std::uint32_t>*> rig_sets_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t requested_ = 0;
};

} // namespace gb::fleet
