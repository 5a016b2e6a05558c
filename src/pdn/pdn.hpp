// Power-delivery network (PDN) model.
//
// The paper's dI/dt viruses "cause the CPU power consumption to switch
// between high and low power at a rate equal to [the] PDN 1st-order resonant
// frequency", maximizing voltage noise.  To make that behaviour emergent
// rather than scripted, the die supply is modelled as the canonical
// second-order circuit used in the voltage-noise literature (Reddi MICRO'10,
// Bertran MICRO'14):
//
//     regulator --- R --- L ---+--- die
//                              |
//                              C   (on-die + package decap)
//                              |
//                             gnd        die draws I(t)
//
// State equations (semi-implicit Euler, one step per core clock cycle):
//     L dI_L/dt = V_reg - R I_L - V_die
//     C dV_die/dt = I_L - I_die(t)
//
// A workload is a per-cycle current trace; the model convolves it into a die
// voltage waveform.  A square-wave current at f_res = 1/(2 pi sqrt(LC))
// resonates and produces the worst droop -- exactly what the GA discovers.
#pragma once

#include <span>
#include <vector>

#include "util/units.hpp"

namespace gb {

/// Electrical parameters of the PDN.
struct pdn_parameters {
    double resistance_ohm = 0.0;
    double inductance_h = 0.0;
    double capacitance_f = 0.0;

    [[nodiscard]] double resonant_frequency_hz() const;

    /// Construct parameters with a target resonant frequency and damping
    /// ratio for a given decap value.
    static pdn_parameters for_resonance(double resonant_frequency_hz,
                                        double damping_ratio,
                                        double capacitance_f);
};

/// Discrete-time PDN simulator.  One `step` per core clock cycle.
class pdn_model {
public:
    pdn_model(const pdn_parameters& params, millivolts nominal_voltage,
              megahertz clock);

    /// Reset to the DC steady state for a given standing current.
    void reset(amperes standing_current);

    /// Advance one clock cycle with the given die current; returns the die
    /// voltage after the step.
    millivolts step(amperes die_current);

    [[nodiscard]] millivolts nominal_voltage() const { return nominal_; }
    [[nodiscard]] const pdn_parameters& parameters() const { return params_; }
    /// PDN resonance expressed in cycles of the core clock per period.
    [[nodiscard]] double resonance_period_cycles() const;

    /// Worst-case droop below nominal (mV) over a per-cycle current trace
    /// (amperes).  Starts from the DC steady state of the trace's mean
    /// current and runs one warm-up pass of the trace so start-up
    /// transients don't count.
    ///
    /// This is the hot kernel of every Vmin search: one step() per cycle
    /// on a scratch copy.  The compiler keeps the two integrator states in
    /// registers and hoists the coefficients itself, so hand-hoisting buys
    /// nothing (docs/OBSERVABILITY.md "Hot-path kernels").
    [[nodiscard]] millivolts worst_droop(
        std::span<const double> current_trace) const;

private:
    pdn_parameters params_;
    millivolts nominal_;
    double dt_s_;
    double v_die_ = 0.0;
    double i_l_ = 0.0;
};

} // namespace gb
