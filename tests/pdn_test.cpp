#include "pdn/pdn.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "util/contracts.hpp"

namespace gb {
namespace {

pdn_parameters test_pdn() {
    return pdn_parameters::for_resonance(50.0e6, 0.08, 0.5e-6);
}

TEST(pdn_parameters_test, for_resonance_roundtrip) {
    const pdn_parameters p = test_pdn();
    EXPECT_NEAR(p.resonant_frequency_hz(), 50.0e6, 1.0);
    // Damping ratio of the series R-L branch against the decap.
    EXPECT_NEAR((p.resistance_ohm / 2.0) *
                    std::sqrt(p.capacitance_f / p.inductance_h),
                0.08, 1e-9);
    EXPECT_DOUBLE_EQ(p.capacitance_f, 0.5e-6);
}

/// Worst droop (mV) of a 1 A sinusoidal load around 2 A at `frequency_hz`
/// on a 2.4 GHz clock, minus the 2 A IR drop.
double dynamic_droop_mv(double frequency_hz) {
    const pdn_model model(test_pdn(), millivolts{980.0},
                          megahertz::from_gigahertz(2.4));
    // 4800 cycles hold a whole number of periods at 10, 50 and 200 MHz.
    std::vector<double> trace(4800);
    for (std::size_t k = 0; k < trace.size(); ++k) {
        const double phase = 2.0 * std::numbers::pi * frequency_hz *
                             static_cast<double>(k) / 2.4e9;
        trace[k] = 2.0 + std::sin(phase);
    }
    return model.worst_droop(trace).value -
           test_pdn().resistance_ohm * 2.0 * 1000.0;
}

TEST(pdn_parameters_test, impedance_peaks_at_resonance) {
    // The droop a sinusoidal load excites is its amplitude times the PDN
    // impedance at that frequency.
    const double at_resonance = dynamic_droop_mv(50.0e6);
    EXPECT_GT(at_resonance, dynamic_droop_mv(10.0e6));
    EXPECT_GT(at_resonance, dynamic_droop_mv(200.0e6));
    // Lightly damped: resonant impedance well above the DC resistance.
    EXPECT_GT(at_resonance, 5.0 * test_pdn().resistance_ohm * 1000.0);
}

TEST(pdn_model_test, steady_state_is_ir_drop) {
    pdn_model model(test_pdn(), millivolts{980.0},
                    megahertz::from_gigahertz(2.4));
    model.reset(amperes{0.0});
    millivolts v{0.0};
    for (int i = 0; i < 200000; ++i) {
        v = model.step(amperes{5.0});
    }
    const double expected =
        980.0 - test_pdn().resistance_ohm * 5.0 * 1000.0;
    EXPECT_NEAR(v.value, expected, 0.05);
}

TEST(pdn_model_test, reset_puts_dc_state) {
    pdn_model model(test_pdn(), millivolts{980.0},
                    megahertz::from_gigahertz(2.4));
    model.reset(amperes{3.0});
    // Continuing the same current must not move the voltage.
    const millivolts v0 = model.step(amperes{3.0});
    const millivolts v1 = model.step(amperes{3.0});
    EXPECT_NEAR(v0.value, v1.value, 1e-6);
}

TEST(pdn_model_test, resonance_period_in_cycles) {
    pdn_model model(test_pdn(), millivolts{980.0},
                    megahertz::from_gigahertz(2.4));
    EXPECT_NEAR(model.resonance_period_cycles(), 48.0, 0.01);
}

std::vector<double> square_wave(int period_cycles, std::size_t total,
                                double low_a, double high_a) {
    std::vector<double> trace(total);
    for (std::size_t i = 0; i < total; ++i) {
        trace[i] = (static_cast<int>(i) % period_cycles) <
                           period_cycles / 2
                       ? high_a
                       : low_a;
    }
    return trace;
}

// Property sweep: droop as a function of the excitation period must peak at
// the PDN resonance (48 cycles at 2.4 GHz) -- this is the physics that makes
// the GA's dI/dt virus converge on resonant loops.
class droop_period_test : public ::testing::TestWithParam<int> {};

TEST_P(droop_period_test, resonant_period_droops_most) {
    const int period = GetParam();
    pdn_model model(test_pdn(), millivolts{980.0},
                    megahertz::from_gigahertz(2.4));
    const auto droop_at = [&](int p) {
        return model.worst_droop(square_wave(p, 9600, 0.5, 1.5)).value;
    };
    if (period != 48) {
        EXPECT_GT(droop_at(48), droop_at(period))
            << "period " << period << " must droop less than resonance";
    }
}

INSTANTIATE_TEST_SUITE_P(periods, droop_period_test,
                         ::testing::Values(8, 16, 24, 32, 64, 96, 192, 480));

TEST(pdn_model_test, droop_scales_with_swing) {
    pdn_model model(test_pdn(), millivolts{980.0},
                    megahertz::from_gigahertz(2.4));
    const double small =
        model.worst_droop(square_wave(48, 9600, 0.9, 1.1)).value;
    const double large =
        model.worst_droop(square_wave(48, 9600, 0.0, 2.0)).value;
    // The IR-drop share of the small-swing droop skews the ratio
    // slightly below the ideal 10x of the resonant component.
    EXPECT_NEAR(large / small, 10.0, 2.0);
}

TEST(pdn_model_test, constant_current_has_no_droop) {
    pdn_model model(test_pdn(), millivolts{980.0},
                    megahertz::from_gigahertz(2.4));
    const std::vector<double> flat(4096, 2.0);
    EXPECT_NEAR(model.worst_droop(flat).value,
                test_pdn().resistance_ohm * 2.0 * 1000.0, 0.1);
}

TEST(pdn_model_test, rejects_invalid_construction) {
    pdn_parameters bad;
    EXPECT_THROW(pdn_model(bad, millivolts{980.0},
                           megahertz::from_gigahertz(2.4)),
                 contract_violation);
    EXPECT_THROW(pdn_model(test_pdn(), millivolts{0.0},
                           megahertz::from_gigahertz(2.4)),
                 contract_violation);
}

TEST(pdn_model_test, empty_trace_rejected) {
    pdn_model model(test_pdn(), millivolts{980.0},
                    megahertz::from_gigahertz(2.4));
    const std::vector<double> empty;
    EXPECT_THROW((void)model.worst_droop(empty), contract_violation);
}

} // namespace
} // namespace gb
