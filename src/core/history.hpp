// Droop / supply-requirement history (paper Section IV.D: "Such a model can
// take also into consideration the history of voltage droops occurred over
// time.  Then based on a chip's intrinsic Vmin ... and the history of
// droops, we can predict the probability of the operating voltage crossing
// the intrinsic Vmin").
//
// The history stores the per-epoch supply requirement (intrinsic Vmin plus
// that epoch's worst droop, as the governor's telemetry would infer it) in
// a bounded ring.  Failure probability at a candidate voltage is the
// empirical exceedance within the sample, extended beyond the observed
// maximum by a peaks-over-threshold exponential tail — droop extremes are
// light-tailed, so the exponential excess model is the standard choice.
#pragma once

#include <cstddef>
#include <vector>

#include "util/units.hpp"

namespace gb {

class droop_history {
public:
    explicit droop_history(std::size_t capacity = 1024);

    /// Record one epoch's observed supply requirement.
    void record(millivolts requirement);

    /// Forget everything (supervisor recovery hook: after a quarantine
    /// lifts, the storm-era requirements would pin the probabilistic floor
    /// at the tripped level; re-probing starts a fresh sample instead).
    void clear();

    [[nodiscard]] std::size_t size() const { return values_.size(); }
    [[nodiscard]] bool empty() const { return values_.empty(); }
    [[nodiscard]] millivolts max_requirement() const;

    /// Empirical quantile (q in [0, 1]) of the recorded requirements.
    [[nodiscard]] millivolts quantile(double q) const;

    /// Smallest voltage v with P(requirement of a future epoch > v) <=
    /// target: empirical within the sample, exponential excess above the
    /// 90th percentile beyond it.
    [[nodiscard]] millivolts voltage_for_failure_probability(
        double target) const;

private:
    std::size_t capacity_;
    std::size_t next_ = 0;
    std::vector<double> values_; ///< ring buffer once at capacity
};

} // namespace gb
