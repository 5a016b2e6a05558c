#include "pdn/pdn.hpp"

#include <cmath>
#include <numbers>

#include "util/contracts.hpp"

namespace gb {

double pdn_parameters::resonant_frequency_hz() const {
    GB_EXPECTS(inductance_h > 0.0 && capacitance_f > 0.0);
    return 1.0 / (2.0 * std::numbers::pi *
                  std::sqrt(inductance_h * capacitance_f));
}

pdn_parameters pdn_parameters::for_resonance(double resonant_frequency_hz,
                                             double damping_ratio,
                                             double capacitance_f) {
    GB_EXPECTS(resonant_frequency_hz > 0.0);
    GB_EXPECTS(damping_ratio > 0.0);
    GB_EXPECTS(capacitance_f > 0.0);
    const double omega0 = 2.0 * std::numbers::pi * resonant_frequency_hz;
    pdn_parameters params;
    params.capacitance_f = capacitance_f;
    params.inductance_h = 1.0 / (omega0 * omega0 * capacitance_f);
    params.resistance_ohm =
        2.0 * damping_ratio * std::sqrt(params.inductance_h / capacitance_f);
    return params;
}

pdn_model::pdn_model(const pdn_parameters& params, millivolts nominal_voltage,
                     megahertz clock)
    : params_(params), nominal_(nominal_voltage),
      dt_s_(1.0 / clock.hertz()) {
    GB_EXPECTS(params.resistance_ohm > 0.0);
    GB_EXPECTS(params.inductance_h > 0.0);
    GB_EXPECTS(params.capacitance_f > 0.0);
    GB_EXPECTS(nominal_voltage.value > 0.0);
    GB_EXPECTS(clock.value > 0.0);
    // Semi-implicit Euler is stable for omega0 * dt < 2; the PDN resonance is
    // tens of MHz against a GHz-range clock, so this holds by construction.
    const double omega0 =
        2.0 * std::numbers::pi * params.resonant_frequency_hz();
    GB_EXPECTS(omega0 * dt_s_ < 1.0);
    reset(amperes{0.0});
}

void pdn_model::reset(amperes standing_current) {
    // DC steady state: inductor carries the standing current, die sits at
    // V_reg - R * I.
    i_l_ = standing_current.value;
    v_die_ = nominal_.volts() - params_.resistance_ohm * i_l_;
}

millivolts pdn_model::step(amperes die_current) {
    // Semi-implicit (symplectic) Euler: update the inductor from the old die
    // voltage, then the capacitor from the new inductor current.
    const double v_reg = nominal_.volts();
    i_l_ += dt_s_ / params_.inductance_h *
            (v_reg - params_.resistance_ohm * i_l_ - v_die_);
    v_die_ += dt_s_ / params_.capacitance_f * (i_l_ - die_current.value);
    return millivolts::from_volts(v_die_);
}

double pdn_model::resonance_period_cycles() const {
    return 1.0 / (params_.resonant_frequency_hz() * dt_s_);
}

millivolts pdn_model::worst_droop(
    std::span<const double> current_trace) const {
    GB_EXPECTS(!current_trace.empty());
    double sum = 0.0;
    for (const double i : current_trace) {
        sum += i;
    }
    pdn_model scratch = *this;
    scratch.reset(amperes{sum / static_cast<double>(current_trace.size())});
    // Warm-up pass: let the loop reach its periodic steady state.
    for (const double i : current_trace) {
        (void)scratch.step(amperes{i});
    }
    double v_min = nominal_.value;
    for (const double i : current_trace) {
        v_min = std::min(v_min, scratch.step(amperes{i}).value);
    }
    return millivolts{nominal_.value - v_min};
}

} // namespace gb
