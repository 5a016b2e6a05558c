// SLIMpro management-processor facade.
//
// On the real board the Scalable Lightweight Intelligent Management
// Processor boots the system, exposes the temperature/power sensors, reports
// every ECC correction/detection to the kernel, and is the interface through
// which MCU parameters (timings, refresh period TREFP) are reconfigured.
// The facade models the sensors and the MCU path; the studies read ECC
// outcomes from the scans and run records themselves.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "chip/chip_model.hpp"
#include "dram/memory_system.hpp"
#include "util/units.hpp"
#include "xgene/soc.hpp"

namespace gb {

/// One snapshot of the on-board sensors.
struct sensor_readings {
    watts pmd_power{0.0};
    watts soc_power{0.0};
    watts dram_power{0.0};
    watts other_power{0.0};
    std::array<celsius, 4> dimm_temperature{celsius{30.0}, celsius{30.0},
                                            celsius{30.0}, celsius{30.0}};
    celsius soc_temperature{50.0};

    [[nodiscard]] watts total_power() const {
        return pmd_power + soc_power + dram_power + other_power;
    }
};

class slimpro {
public:
    /// MCU configuration: refresh period (TREFP), bounded like the real
    /// register (the paper programs up to 35x nominal).
    void configure_refresh_period(memory_system& memory,
                                  milliseconds period) const;
};

} // namespace gb
