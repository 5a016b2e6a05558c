// Integrity primitives against silent data corruption (SDC).
//
// The chaos harness (harness/chaos) covers *crashes*: torn writes, killed
// warms, missing renames.  This module covers the quieter threat the
// paper's guardband exploitation actually runs into -- a Byzantine rig
// that returns plausible-but-wrong measurements with no fault signal
// (fault_injection.hpp's sdc_plan reproduces it deterministically).  The
// defenses composed here by fleet/service:
//
//   * chain hash    -- every journal record folds the previous record's
//                      chain value into its own FNV-1a hash, so any
//                      in-place edit (not just a torn tail) breaks every
//                      subsequent link and is caught on warm;
//   * rig model     -- a deterministic content-pure assignment of probe
//                      replicas onto disjoint simulated rigs, so N-modular
//                      redundant execution has somewhere to disagree;
//   * quorum vote   -- majority-of-N admission with dissenter reporting;
//   * reputation    -- a per-rig dissent ledger with a blacklist
//                      threshold, the fleet-level analogue of the
//                      supervisor's per-(PMD, workload-class) error-burst
//                      circuit breakers (src/core/supervisor.hpp): repeat
//                      dissenters get quarantined and their sole-sourced
//                      results re-executed.
//
// Everything here is a pure function of campaign content and integrity
// configuration -- never of worker counts, shards or wall time -- so the
// defended journal and snapshot stay bitwise-deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/wire.hpp"

namespace gb {

// --- hash chain ------------------------------------------------------------

/// FNV-1a offset basis; the chain value of the empty journal.
inline constexpr std::uint64_t chain_basis = fnv1a_basis;

/// Chain value after appending `payload`: FNV-1a over the previous chain
/// value's 8 little-endian bytes followed by the payload bytes.  An
/// in-place corruption of any earlier record changes every later link.
[[nodiscard]] std::uint64_t chain_next(std::uint64_t prev,
                                       std::string_view payload);

// --- rig model -------------------------------------------------------------

/// Simulated rig that executes replica `replica` of the probe with content
/// id `content`.  Content-pure (splitmix64 over a domain-separated seed),
/// and disjoint across replicas: replica r lands on base + r (mod rigs),
/// so a quorum of N ≤ rigs never asks one rig to vote twice.
[[nodiscard]] std::uint64_t rig_for(std::uint64_t seed,
                                    std::uint64_t content, int replica,
                                    std::uint64_t rigs);

// --- quorum vote -----------------------------------------------------------

/// Outcome of a majority vote over replica results.
struct quorum_tally {
    /// True when some value holds a strict majority.
    bool decided = false;
    /// Index of the winning replica (smallest index inside the winning
    /// equivalence class); meaningful only when decided.
    std::size_t winner = 0;
    /// Replicas outside the winning class (empty when undecided: with no
    /// majority nobody can be blamed).
    std::vector<std::size_t> dissenters;
};

/// Majority vote over `replicas` results compared by `same(i, j)` (an
/// equivalence).  Deterministic: classes are built in index order and the
/// winner is the first class to reach the best count.
template <typename Same>
[[nodiscard]] quorum_tally vote(std::size_t replicas, Same&& same) {
    quorum_tally tally;
    if (replicas == 0) {
        return tally;
    }
    std::vector<std::size_t> leader(replicas, 0);
    std::vector<std::size_t> count(replicas, 0);
    for (std::size_t i = 0; i < replicas; ++i) {
        leader[i] = i;
        for (std::size_t j = 0; j < i; ++j) {
            if (leader[j] == j && same(i, j)) {
                leader[i] = j;
                break;
            }
        }
        ++count[leader[i]];
    }
    std::size_t best = 0;
    for (std::size_t i = 1; i < replicas; ++i) {
        if (count[i] > count[best]) {
            best = i;
        }
    }
    if (count[best] * 2 > replicas) {
        tally.decided = true;
        tally.winner = best;
        for (std::size_t i = 0; i < replicas; ++i) {
            if (leader[i] != best) {
                tally.dissenters.push_back(i);
            }
        }
    }
    return tally;
}

// --- rig reputation --------------------------------------------------------

struct rig_reputation_config {
    /// Dissents before a rig is blacklisted (its sole-sourced history gets
    /// re-executed).  Mirrors the supervisor breaker's trip score.
    std::uint64_t blacklist_threshold = 2;
};

/// Per-rig dissent ledger.  Deterministic: state is a pure fold of the
/// recorded dissents in call order (fleet/service records them serially in
/// journal commit order).
class rig_reputation {
public:
    rig_reputation() = default;
    explicit rig_reputation(rig_reputation_config config);

    /// Record one outvoted dissent by `rig`.  True when this dissent just
    /// pushed the rig over the blacklist threshold (the caller owes a
    /// repair sweep of the rig's sole-sourced results).
    bool record_dissent(std::uint64_t rig);

    [[nodiscard]] bool blacklisted(std::uint64_t rig) const;
    [[nodiscard]] std::uint64_t dissents() const { return dissents_; }
    [[nodiscard]] std::uint64_t blacklisted_count() const {
        return blacklisted_;
    }
    [[nodiscard]] const rig_reputation_config& config() const {
        return config_;
    }

private:
    rig_reputation_config config_;
    std::map<std::uint64_t, std::uint64_t> dissent_counts_;
    std::uint64_t dissents_ = 0;
    std::uint64_t blacklisted_ = 0;
};

} // namespace gb
