// Fleet topology for datacenter-scale characterization campaigns.
//
// The paper characterizes three X-Gene2 chips; the UniServer deployment it
// argues for only pays off across a whole fleet, where per-chip guardband
// variation (and the probing cost of revealing it) is the dominant
// concern.  This module models that population: a `fleet_spec` describes
// 10^5..10^6 nodes, each node is derived O(1) from (spec seed, node id) --
// no state, no draws crossing node boundaries, so any slice of the fleet
// is reproducible in isolation -- and nodes group into *cohorts* keyed by
//
//     (chip process corner, workload class, operating point [, variant])
//
// Cohort members share a characterization probe: one probe executes per
// cohort and its result fans out to every member, with a bounded
// deterministic per-node jitter standing in for within-cohort chip spread.
// The `variant` field opts a node *out* of sharing (unique-chip fleets
// such as the fleet_binning example give every node its own variant).
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "chip/corners.hpp"
#include "util/rng.hpp"

namespace gb::fleet {

/// Probe-sharing key.  Nodes with equal keys are electrically and
/// behaviourally interchangeable for characterization purposes: same
/// canonical corner part, same workload class, same operating point.
struct cohort_key {
    process_corner corner = process_corner::ttt;
    std::uint16_t workload_class = 0;
    std::uint16_t operating_point = 0;
    /// Per-node chip variant for unique-chip fleets; 0 means the cohort
    /// shares the canonical corner part.  Distinct variants never share a
    /// probe (each is its own silicon).
    std::uint32_t variant = 0;

    friend auto operator<=>(const cohort_key&,
                            const cohort_key&) = default;
};

struct fleet_node {
    std::uint64_t id = 0;
    cohort_key cohort;
    /// Per-node jitter stream root, derived from (spec seed, id).
    std::uint64_t seed = 0;
};

/// Declarative description of a simulated fleet.  Node -> cohort
/// assignment is a pure function of (seed, id); two specs with equal
/// fields describe bitwise-equal fleets.
struct fleet_spec {
    std::uint64_t nodes = 0;
    std::uint64_t seed = 2018;
    /// Cohort axes: workload classes x operating points per corner.
    int workload_classes = 3;
    int operating_points = 4;
    /// Deterministic within-cohort requirement spread per node, in mV
    /// (uniform in [0, node_jitter_mv)); 0 pins every member to the
    /// cohort probe's exact requirement.
    double node_jitter_mv = 12.0;
    /// Voltage-class binning of revealed requirements (the deployment
    /// granularity): ceil to `bin_step_mv`, capped at `bin_cap_mv`.
    double bin_step_mv = 10.0;
    double bin_cap_mv = 980.0;
    /// Explicit node list (unique-chip fleets).  When non-empty it
    /// overrides generation: `nodes`/axes are ignored.
    std::vector<fleet_node> explicit_nodes;

    [[nodiscard]] std::uint64_t node_count() const {
        return explicit_nodes.empty()
                   ? nodes
                   : static_cast<std::uint64_t>(explicit_nodes.size());
    }
};

/// The per-node derivation of a generated fleet, split at its
/// spec-constant half.  A node's axis word and jitter seed are each
/// derive_task_seed(base, id) (harness/execution_engine.hpp) for a base
/// fixed by the spec; the first of derive_task_seed's two splitmix64 steps
/// depends on the base alone and is hoisted here, so a node pays one mix
/// per word.  `slot(id)` is the node's cohort as a dense index into the
/// flat corner x class x operating-point table,
///
///     slot = (corner * classes + class) * points + operating point,
///
/// which orders slots exactly like `cohort_key`'s <=> (variant 0).
class node_derivation {
public:
    /// Requires 1 <= classes, points <= 65536 (each axis draw must fit
    /// its cohort_key field).
    explicit node_derivation(const fleet_spec& spec);

    [[nodiscard]] std::size_t slot(std::uint64_t id) const {
        const std::uint64_t word = mix(axis_base_, id);
        // One word carries all three axis draws; the independent byte
        // lanes keep the axes decorrelated without extra mixing.
        const std::uint64_t corner = word % 3;
        const std::uint64_t klass = (word >> 8) % classes_;
        const std::uint64_t point = (word >> 24) % points_;
        return static_cast<std::size_t>((corner * classes_ + klass) *
                                            points_ +
                                        point);
    }
    /// The node's jitter stream root (`fleet_node::seed`).
    [[nodiscard]] std::uint64_t seed(std::uint64_t id) const {
        return mix(seed_base_, id);
    }
    /// Slots in the flat table: 3 corners x classes x points.
    [[nodiscard]] std::size_t slots() const {
        return static_cast<std::size_t>(3 * classes_ * points_);
    }
    /// The cohort key of a slot (variant 0); inverse of the slot formula.
    [[nodiscard]] cohort_key key(std::size_t slot) const;

    /// The jitter scale a spec's nodes use: `node_jitter_mv` when
    /// positive, else 0 (every node pinned to its cohort's requirement).
    [[nodiscard]] static double jitter_scale(const fleet_spec& spec) {
        return spec.node_jitter_mv <= 0.0 ? 0.0 : spec.node_jitter_mv;
    }
    /// A node's requirement jitter in [0, scale]: 53 uniform mantissa bits
    /// of its seed word mapped to [0, 1), times the scale.
    [[nodiscard]] static double jitter_mv(std::uint64_t seed, double scale) {
        const double unit = static_cast<double>(seed >> 11) * 0x1.0p-53;
        return unit * scale;
    }

private:
    /// derive_task_seed(base, id) given base_mix = splitmix64(base).
    [[nodiscard]] static std::uint64_t mix(std::uint64_t base_mix,
                                           std::uint64_t id) {
        std::uint64_t state = base_mix ^ (id + 0x9e3779b97f4a7c15ULL);
        return splitmix64(state);
    }

    std::uint64_t axis_base_ = 0;
    std::uint64_t seed_base_ = 0;
    std::uint64_t classes_ = 1;
    std::uint64_t points_ = 1;
};

/// Node `id` of a generated fleet (O(1), stateless).  For specs with
/// explicit nodes use the list instead.
[[nodiscard]] fleet_node make_node(const fleet_spec& spec,
                                   std::uint64_t id);

/// The node's deterministic requirement jitter in [0, spec.node_jitter_mv).
[[nodiscard]] double node_jitter_mv(const fleet_spec& spec,
                                    const fleet_node& node);

/// Voltage class of a revealed requirement under the spec's binning:
/// class_voltage_mv at q = ceil(requirement / bin_step_mv).
[[nodiscard]] double bin_voltage_mv(const fleet_spec& spec,
                                    double requirement_mv);

/// Voltage of class `q` (an integer-valued step count): q * bin_step_mv,
/// capped at bin_cap_mv.
[[nodiscard]] double class_voltage_mv(const fleet_spec& spec, double q);

/// Content address of one probe: FNV-1a over the cohort key fields and
/// the campaign sweep offset -- the fleet-scale analogue of the profile
/// XX.  Equal
/// content ids mean "the same physical experiment"; the probe cache fans
/// one execution out to every requester.
[[nodiscard]] std::uint64_t probe_content(const cohort_key& key,
                                          std::int64_t sweep_mv);

} // namespace gb::fleet
