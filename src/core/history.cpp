#include "core/history.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"
#include "util/stats.hpp"

namespace gb {

droop_history::droop_history(std::size_t capacity) : capacity_(capacity) {
    GB_EXPECTS(capacity >= 16);
    values_.reserve(capacity);
}

void droop_history::record(millivolts requirement) {
    GB_EXPECTS(requirement.value > 0.0);
    if (values_.size() < capacity_) {
        values_.push_back(requirement.value);
    } else {
        values_[next_] = requirement.value;
        next_ = (next_ + 1) % capacity_;
    }
}

void droop_history::clear() {
    values_.clear();
    next_ = 0;
}

millivolts droop_history::max_requirement() const {
    GB_EXPECTS(!values_.empty());
    return millivolts{*std::max_element(values_.begin(), values_.end())};
}

millivolts droop_history::quantile(double q) const {
    GB_EXPECTS(!values_.empty());
    return millivolts{percentile(values_, q)};
}

millivolts droop_history::voltage_for_failure_probability(
    double target) const {
    GB_EXPECTS(target > 0.0 && target < 1.0);
    GB_EXPECTS(!values_.empty());
    // Invert: start from the empirical quantile, then push into the
    // exponential tail if the target is rarer than 1/n.
    const auto n = static_cast<double>(values_.size());
    if (target >= 1.0 / n) {
        return quantile(1.0 - target);
    }
    const double threshold = percentile(values_, 0.9);
    double excess_sum = 0.0;
    double excess_count = 0.0;
    for (const double x : values_) {
        if (x > threshold) {
            excess_sum += x - threshold;
            excess_count += 1.0;
        }
    }
    if (excess_count == 0.0 || excess_sum <= 0.0) {
        return max_requirement();
    }
    const double mean_excess = excess_sum / excess_count;
    const double p_threshold = excess_count / n;
    // Solve p_threshold * exp(-(v - u)/m) = target for v.
    const double v = threshold + mean_excess * std::log(p_threshold / target);
    return millivolts{std::max(v, max_requirement().value)};
}

} // namespace gb
