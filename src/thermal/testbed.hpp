// The temperature-controlled DRAM testbed (paper Section III.B, Fig 3):
// one heating adapter per DIMM, each regulated by its own PID loop reading
// the thermocouple and driving a solid-state relay.  The paper reports a
// maximum deviation below 1 C from the set temperature; the regulation test
// here reproduces that bound.
#pragma once

#include <vector>

#include "dram/memory_system.hpp"
#include "thermal/pid.hpp"
#include "thermal/plant.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace gb {

class thermal_testbed {
public:
    thermal_testbed(int dimm_count, const thermal_plant_config& plant_config,
                    std::uint64_t seed);

    void set_target(int dimm, celsius target);
    void set_all_targets(celsius target);

    /// Run the control loop for `duration_s` at the given control period.
    /// Tracking statistics (deviation from target) accumulate only after
    /// `settle_s` so the approach transient does not count, matching how the
    /// testbed is operated (heat, wait, then measure).
    void run(double duration_s, double control_period_s, double settle_s);

    /// Enable the dual-sensor cross-check: when thermocouple and SPD
    /// readings disagree by more than `threshold` for several consecutive
    /// control steps, the controller raises an alarm for that DIMM and
    /// falls back to the SPD sensor (the paper's testbed reads both "to
    /// aggressively control the heating elements").
    void enable_spd_cross_check(celsius threshold);
    [[nodiscard]] bool cross_check_alarm(int dimm) const;
    /// Number of DIMMs whose cross-check alarm is currently raised.
    [[nodiscard]] int alarm_count() const;

    /// Inject a thermocouple mounting fault on one DIMM.
    void inject_thermocouple_fault(int dimm, celsius offset);

    [[nodiscard]] celsius temperature(int dimm) const;
    /// Largest |T - target| observed for a DIMM after settling.
    [[nodiscard]] double max_deviation_c(int dimm) const;
    [[nodiscard]] int dimm_count() const;

    /// Copy the current plant temperatures into a memory system.
    void apply_to(memory_system& memory) const;

private:
    std::vector<thermal_plant> plants_;
    std::vector<pid_controller> controllers_;
    std::vector<celsius> targets_;
    std::vector<double> max_deviation_c_;
    rng sensor_rng_;
    bool cross_check_enabled_ = false;
    celsius cross_check_threshold_{2.0};
    std::vector<int> disagreement_streak_;
    std::vector<bool> alarm_;
};

/// PID gains tuned for the default plant (90 s time constant, 60 W heater):
/// fast approach with < 1 C overshoot and steady tracking.
[[nodiscard]] pid_gains default_dimm_heater_gains();

} // namespace gb
