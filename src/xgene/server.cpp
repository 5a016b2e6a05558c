#include "xgene/server.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace gb {

watts soc_power_model::power(millivolts v) const {
    GB_EXPECTS(v.value > 0.0);
    const double v_ratio = v / nominal_soc_voltage;
    const double dynamic = dynamic_w * v_ratio * v_ratio;
    const double leakage =
        leakage_w *
        std::exp((v.value - nominal_soc_voltage.value) /
                 cpu_power_model::leakage_voltage_scale_mv) *
        v_ratio;
    return watts{fixed_w + dynamic + leakage};
}

xgene2_server::xgene2_server(chip_config chip, std::uint64_t seed,
                             dram_geometry memory_geometry,
                             retention_model retention, study_limits limits)
    : topology_(xgene2_topology()),
      cpu_(std::move(chip), make_xgene2_pdn()),
      memory_(memory_geometry, retention, seed, limits),
      op_(operating_point::nominal()) {}

void xgene2_server::apply(const operating_point& op) {
    GB_EXPECTS(op.pmd_voltage.value > 0.0);
    GB_EXPECTS(op.soc_voltage.value > 0.0);
    for (const megahertz f : op.pmd_frequency) {
        GB_EXPECTS(f.value > 0.0 && f <= nominal_core_frequency);
    }
    slimpro_.configure_refresh_period(memory_, op.refresh_period);
    op_ = op;
}

sensor_readings xgene2_server::read_sensors(
    const workload_snapshot& snapshot) const {
    for (const core_assignment& a : snapshot.assignments) {
        const int pmd = topology_.pmd_of_core(a.core);
        GB_EXPECTS(a.frequency ==
                   op_.pmd_frequency[static_cast<std::size_t>(pmd)]);
    }
    sensor_readings readings;
    readings.pmd_power = cpu_power_.pmd_domain_power(
        cpu_.config(), snapshot.assignments, op_.pmd_voltage,
        snapshot.chip_temperature);
    readings.soc_power = soc_power_.power(op_.soc_voltage);
    readings.dram_power =
        dram_power_.power(op_.refresh_period, snapshot.dram_bandwidth_gbps);
    readings.other_power = other_domain_power;
    readings.soc_temperature = snapshot.chip_temperature;
    for (int dimm = 0;
         dimm < std::min(memory_.geometry().dimms, 4); ++dimm) {
        readings.dimm_temperature[static_cast<std::size_t>(dimm)] =
            memory_.dimm_temperature(dimm);
    }
    return readings;
}

run_evaluation xgene2_server::execute(const workload_snapshot& snapshot,
                                      std::uint64_t phase_seed, rng& r) {
    return cpu_.evaluate_run(snapshot.assignments, op_.pmd_voltage,
                             phase_seed, r);
}

} // namespace gb
