#include "fleet/fleet.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"
#include "util/wire.hpp"

namespace gb::fleet {

namespace {

/// Seed-domain offset of the jitter stream (the axis stream uses the spec
/// seed itself).
constexpr std::uint64_t jitter_domain = 0x517cc1b727220a95ULL;

/// The hoisted first half of derive_task_seed(base, id).
std::uint64_t base_mix(std::uint64_t base) {
    return splitmix64(base);
}

/// An axis count as a divisor: 1..65536, so every draw fits its 16-bit
/// cohort_key field.
std::uint64_t axis_divisor(int count) {
    GB_EXPECTS(count >= 1 && count <= 65536);
    return static_cast<std::uint64_t>(count);
}

} // namespace

node_derivation::node_derivation(const fleet_spec& spec)
    : axis_base_(base_mix(spec.seed)),
      seed_base_(base_mix(spec.seed + jitter_domain)),
      classes_(axis_divisor(spec.workload_classes)),
      points_(axis_divisor(spec.operating_points)) {}

cohort_key node_derivation::key(std::size_t slot) const {
    GB_EXPECTS(slot < slots());
    const std::uint64_t corner_class = slot / points_;
    cohort_key key;
    key.corner = static_cast<process_corner>(corner_class / classes_);
    key.workload_class = static_cast<std::uint16_t>(corner_class % classes_);
    key.operating_point = static_cast<std::uint16_t>(slot % points_);
    return key;
}

fleet_node make_node(const fleet_spec& spec, std::uint64_t id) {
    if (!spec.explicit_nodes.empty()) {
        GB_EXPECTS(id < spec.explicit_nodes.size());
        return spec.explicit_nodes[static_cast<std::size_t>(id)];
    }
    const node_derivation derive(spec);
    fleet_node node;
    node.id = id;
    node.cohort = derive.key(derive.slot(id));
    node.seed = derive.seed(id);
    return node;
}

double node_jitter_mv(const fleet_spec& spec, const fleet_node& node) {
    return node_derivation::jitter_mv(node.seed,
                                      node_derivation::jitter_scale(spec));
}

double bin_voltage_mv(const fleet_spec& spec, double requirement_mv) {
    GB_EXPECTS(spec.bin_step_mv > 0.0);
    return class_voltage_mv(spec,
                            std::ceil(requirement_mv / spec.bin_step_mv));
}

double class_voltage_mv(const fleet_spec& spec, double q) {
    return std::min(spec.bin_cap_mv, q * spec.bin_step_mv);
}

std::uint64_t probe_content(const cohort_key& key, std::int64_t sweep_mv) {
    std::uint64_t hash = fnv1a_basis;
    hash = fnv1a_word(hash, static_cast<std::uint64_t>(key.corner));
    hash = fnv1a_word(hash, key.workload_class);
    hash = fnv1a_word(hash, key.operating_point);
    hash = fnv1a_word(hash, key.variant);
    return fnv1a_word(hash, static_cast<std::uint64_t>(sweep_mv));
}

} // namespace gb::fleet
