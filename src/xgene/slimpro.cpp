#include "xgene/slimpro.hpp"

#include "util/contracts.hpp"

namespace gb {

void slimpro::configure_refresh_period(memory_system& memory,
                                       milliseconds period) const {
    GB_EXPECTS(period.value >= nominal_refresh_period.value);
    memory.set_refresh_period(period);
}

} // namespace gb
