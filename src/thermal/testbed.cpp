#include "thermal/testbed.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace gb {

pid_gains default_dimm_heater_gains() {
    // Duty-cycle output (0..1) against degrees of error: proportional band
    // of ~7 C, slow integral to remove the ambient-dependent offset, strong
    // derivative to catch the first-order lag.
    return pid_gains{0.15, 0.004, 1.2};
}

thermal_testbed::thermal_testbed(int dimm_count,
                                 const thermal_plant_config& plant_config,
                                 std::uint64_t seed)
    : sensor_rng_(seed) {
    GB_EXPECTS(dimm_count >= 1);
    plants_.reserve(static_cast<std::size_t>(dimm_count));
    controllers_.reserve(static_cast<std::size_t>(dimm_count));
    for (int i = 0; i < dimm_count; ++i) {
        plants_.emplace_back(plant_config);
        controllers_.emplace_back(default_dimm_heater_gains(), 0.0, 1.0);
        targets_.push_back(plant_config.ambient);
        max_deviation_c_.push_back(0.0);
        disagreement_streak_.push_back(0);
        alarm_.push_back(false);
    }
}

void thermal_testbed::set_target(int dimm, celsius target) {
    GB_EXPECTS(dimm >= 0 && dimm < dimm_count());
    const auto& cfg = plants_[static_cast<std::size_t>(dimm)].config();
    const double max_reachable =
        cfg.ambient.value +
        cfg.heater_gain_c_per_w * (cfg.heater_max_w + cfg.self_heat_w);
    GB_EXPECTS(target.value >= cfg.ambient.value);
    GB_EXPECTS(target.value <= max_reachable - 2.0);
    targets_[static_cast<std::size_t>(dimm)] = target;
    max_deviation_c_[static_cast<std::size_t>(dimm)] = 0.0;
}

void thermal_testbed::set_all_targets(celsius target) {
    for (int i = 0; i < dimm_count(); ++i) {
        set_target(i, target);
    }
}

void thermal_testbed::run(double duration_s, double control_period_s,
                          double settle_s) {
    GB_EXPECTS(duration_s > 0.0);
    GB_EXPECTS(control_period_s > 0.0 && control_period_s < duration_s);
    GB_EXPECTS(settle_s >= 0.0 && settle_s < duration_s);

    const auto steps =
        static_cast<std::size_t>(std::ceil(duration_s / control_period_s));
    for (std::size_t step = 0; step < steps; ++step) {
        const double t = static_cast<double>(step) * control_period_s;
        for (std::size_t i = 0; i < plants_.size(); ++i) {
            const celsius thermocouple =
                plants_[i].thermocouple_reading(sensor_rng_);
            celsius reading = thermocouple;
            if (cross_check_enabled_) {
                const celsius spd = plants_[i].spd_reading(sensor_rng_);
                if (std::abs(thermocouple.value - spd.value) >
                    cross_check_threshold_.value) {
                    ++disagreement_streak_[i];
                } else if (!alarm_[i]) {
                    disagreement_streak_[i] = 0;
                }
                if (disagreement_streak_[i] >= 5) {
                    alarm_[i] = true;
                }
                if (alarm_[i]) {
                    reading = spd; // fall back to the on-die sensor
                }
            }
            const double duty = controllers_[i].update(
                targets_[i].value, reading.value, control_period_s);
            plants_[i].step(control_period_s, duty);
            if (t >= settle_s) {
                const double deviation = std::abs(
                    plants_[i].temperature().value - targets_[i].value);
                max_deviation_c_[i] =
                    std::max(max_deviation_c_[i], deviation);
            }
        }
    }
}

celsius thermal_testbed::temperature(int dimm) const {
    GB_EXPECTS(dimm >= 0 && dimm < dimm_count());
    return plants_[static_cast<std::size_t>(dimm)].temperature();
}

double thermal_testbed::max_deviation_c(int dimm) const {
    GB_EXPECTS(dimm >= 0 && dimm < dimm_count());
    return max_deviation_c_[static_cast<std::size_t>(dimm)];
}

int thermal_testbed::dimm_count() const {
    return static_cast<int>(plants_.size());
}

void thermal_testbed::enable_spd_cross_check(celsius threshold) {
    GB_EXPECTS(threshold.value > 0.5); // must exceed combined sensor noise
    cross_check_enabled_ = true;
    cross_check_threshold_ = threshold;
}

bool thermal_testbed::cross_check_alarm(int dimm) const {
    GB_EXPECTS(dimm >= 0 && dimm < dimm_count());
    return alarm_[static_cast<std::size_t>(dimm)];
}

int thermal_testbed::alarm_count() const {
    int count = 0;
    for (int dimm = 0; dimm < dimm_count(); ++dimm) {
        if (cross_check_alarm(dimm)) {
            ++count;
        }
    }
    return count;
}

void thermal_testbed::inject_thermocouple_fault(int dimm, celsius offset) {
    GB_EXPECTS(dimm >= 0 && dimm < dimm_count());
    plants_[static_cast<std::size_t>(dimm)].set_thermocouple_fault(offset);
}

void thermal_testbed::apply_to(memory_system& memory) const {
    GB_EXPECTS(memory.geometry().dimms <= dimm_count());
    for (int dimm = 0; dimm < memory.geometry().dimms; ++dimm) {
        memory.set_dimm_temperature(dimm, temperature(dimm));
    }
}

} // namespace gb
