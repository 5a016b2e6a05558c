#include "cache/streams.hpp"

#include <algorithm>
#include <array>
#include <numeric>

#include "util/contracts.hpp"

namespace gb {

std::vector<std::uint64_t> make_chase_order(std::int64_t buffer_bytes,
                                            int line_bytes, rng& r) {
    GB_EXPECTS(buffer_bytes >= line_bytes);
    GB_EXPECTS(line_bytes > 0);
    const auto lines =
        static_cast<std::size_t>(buffer_bytes / line_bytes);
    std::vector<std::uint64_t> order(lines);
    std::iota(order.begin(), order.end(), 0u);
    // Fisher-Yates over the visit order; addresses are line-aligned.
    for (std::size_t i = lines; i > 1; --i) {
        std::swap(order[i - 1], order[r.uniform_index(i)]);
    }
    for (std::uint64_t& line : order) {
        line *= static_cast<std::uint64_t>(line_bytes);
    }
    return order;
}

chase_measurement measure_chase(cache_hierarchy& hierarchy,
                                std::int64_t buffer_bytes, int laps, rng& r) {
    GB_EXPECTS(laps >= 2);
    const std::vector<std::uint64_t> order =
        make_chase_order(buffer_bytes, 64, r);

    // Warm-up lap fills the hierarchy; measured laps count.
    for (const std::uint64_t address : order) {
        (void)hierarchy.access(address, false);
    }
    std::array<std::uint64_t, 4> level_counts{};
    double latency_sum = 0.0;
    std::uint64_t accesses = 0;
    for (int lap = 1; lap < laps; ++lap) {
        for (const std::uint64_t address : order) {
            const hit_level level = hierarchy.access(address, false);
            ++level_counts[static_cast<std::size_t>(level)];
            latency_sum += cache_hierarchy::latency_cycles(level);
            ++accesses;
        }
    }

    chase_measurement result;
    result.average_latency_cycles =
        latency_sum / static_cast<double>(accesses);
    std::size_t best = 0;
    for (std::size_t i = 1; i < level_counts.size(); ++i) {
        if (level_counts[i] > level_counts[best]) {
            best = i;
        }
    }
    result.dominant_level = static_cast<hit_level>(best);
    result.dominant_fraction = static_cast<double>(level_counts[best]) /
                               static_cast<double>(accesses);
    return result;
}

hit_level steady_state_level(std::int64_t buffer_bytes) {
    cache_hierarchy hierarchy = cache_hierarchy::xgene2();
    rng r(buffer_bytes < 0 ? 1
                           : static_cast<std::uint64_t>(buffer_bytes) + 1);
    return measure_chase(hierarchy, buffer_bytes, 4, r).dominant_level;
}

kernel make_pointer_chase_kernel(std::int64_t buffer_bytes,
                                 int loads_per_iteration) {
    GB_EXPECTS(loads_per_iteration > 0);
    const hit_level level = steady_state_level(buffer_bytes);
    opcode op = opcode::load_l1;
    switch (level) {
    case hit_level::l1: op = opcode::load_l1; break;
    case hit_level::l2: op = opcode::load_l2; break;
    case hit_level::l3: op = opcode::load_l3; break;
    case hit_level::memory: op = opcode::load_dram; break;
    }
    kernel k;
    k.name = "chase_" + std::to_string(buffer_bytes / 1024) + "K";
    k.body.assign(static_cast<std::size_t>(loads_per_iteration), op);
    return k;
}

} // namespace gb
