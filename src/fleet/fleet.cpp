#include "fleet/fleet.hpp"

#include <algorithm>
#include <cmath>

#include "harness/execution_engine.hpp"
#include "util/contracts.hpp"
#include "util/wire.hpp"

namespace gb::fleet {

fleet_node make_node(const fleet_spec& spec, std::uint64_t id) {
    if (!spec.explicit_nodes.empty()) {
        GB_EXPECTS(id < spec.explicit_nodes.size());
        return spec.explicit_nodes[static_cast<std::size_t>(id)];
    }
    GB_EXPECTS(spec.workload_classes >= 1);
    GB_EXPECTS(spec.operating_points >= 1);
    fleet_node node;
    node.id = id;
    // One splitmix64 word carries all three axis draws; the independent
    // byte lanes keep the axes decorrelated without extra mixing.
    const std::uint64_t word = derive_task_seed(spec.seed, id);
    node.cohort.corner = static_cast<process_corner>(word % 3);
    node.cohort.workload_class = static_cast<std::uint16_t>(
        (word >> 8) % static_cast<std::uint64_t>(spec.workload_classes));
    node.cohort.operating_point = static_cast<std::uint16_t>(
        (word >> 24) % static_cast<std::uint64_t>(spec.operating_points));
    node.seed = derive_task_seed(spec.seed + 0x517cc1b727220a95ULL, id);
    return node;
}

double node_jitter_mv(const fleet_spec& spec, const fleet_node& node) {
    if (spec.node_jitter_mv <= 0.0) {
        return 0.0;
    }
    // 53 uniform mantissa bits of the node's seed word -> [0, 1).
    const double unit =
        static_cast<double>(node.seed >> 11) * 0x1.0p-53;
    return unit * spec.node_jitter_mv;
}

double bin_voltage_mv(const fleet_spec& spec, double requirement_mv) {
    GB_EXPECTS(spec.bin_step_mv > 0.0);
    const double binned =
        std::ceil(requirement_mv / spec.bin_step_mv) * spec.bin_step_mv;
    return std::min(spec.bin_cap_mv, binned);
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
