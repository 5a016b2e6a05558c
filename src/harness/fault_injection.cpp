#include "harness/fault_injection.hpp"

#include <bit>
#include <cmath>

#include "harness/execution_engine.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace gb {

namespace {

// Domain separators so the fault streams never alias the task-seed stream
// the engine hands to the tasks themselves (same base seed, different
// purpose).
constexpr std::uint64_t run_fault_domain = 0x7269672d66617574ULL;
constexpr std::uint64_t log_fault_domain = 0x6c6f672d66617574ULL;
constexpr std::uint64_t sensor_fault_domain = 0x7463702d66617574ULL;
constexpr std::uint64_t sdc_domain = 0x7364632d66617574ULL;

constexpr std::size_t sdc_site_count = 4;

} // namespace

std::string_view to_string(rig_fault fault) {
    switch (fault) {
    case rig_fault::none: return "none";
    case rig_fault::hang_until_watchdog: return "hang_until_watchdog";
    case rig_fault::board_crash: return "board_crash";
    case rig_fault::power_switch_failure: return "power_switch_failure";
    }
    return "?";
}

void fault_plan_config::validate() const {
    GB_EXPECTS(hang_rate >= 0.0 && hang_rate <= 1.0);
    GB_EXPECTS(crash_rate >= 0.0 && crash_rate <= 1.0);
    GB_EXPECTS(power_switch_rate >= 0.0 && power_switch_rate <= 1.0);
    GB_EXPECTS(hang_rate + crash_rate + power_switch_rate <= 1.0);
    GB_EXPECTS(log_corruption_rate >= 0.0 && log_corruption_rate <= 1.0);
    GB_EXPECTS(thermocouple_fault_rate >= 0.0 &&
               thermocouple_fault_rate <= 1.0);
    GB_EXPECTS(watchdog_timeout_s >= 0.0);
    GB_EXPECTS(reboot_s >= 0.0);
    GB_EXPECTS(power_cycle_retry_s >= 0.0);
}

fault_plan::fault_plan(fault_plan_config config) : config_(config) {
    config_.validate();
}

rig_fault fault_plan::draw(std::uint64_t task_index, int attempt) const {
    GB_EXPECTS(attempt >= 0);
    const std::uint64_t base =
        derive_task_seed(config_.seed ^ run_fault_domain, task_index);
    rng stream(derive_task_seed(base,
                                static_cast<std::uint64_t>(attempt) + 1));
    double u = stream.uniform();
    if (u < config_.hang_rate) {
        return rig_fault::hang_until_watchdog;
    }
    u -= config_.hang_rate;
    if (u < config_.crash_rate) {
        return rig_fault::board_crash;
    }
    u -= config_.crash_rate;
    if (u < config_.power_switch_rate) {
        return rig_fault::power_switch_failure;
    }
    return rig_fault::none;
}

bool fault_plan::corrupts_log(std::uint64_t task_index) const {
    if (config_.log_corruption_rate <= 0.0) {
        return false;
    }
    rng stream(derive_task_seed(config_.seed ^ log_fault_domain, task_index));
    return stream.bernoulli(config_.log_corruption_rate);
}

std::string fault_plan::corrupt_line(std::uint64_t task_index,
                                     std::string_view line) const {
    rng stream(derive_task_seed(config_.seed ^ log_fault_domain,
                                task_index) +
               1);
    // Cut into the first half, then always smear line noise over the tail:
    // the noise bytes contain no '=', so whatever field they land in (or
    // start) fails key=value parsing -- the remnant can never parse as a
    // (wrong) record, regardless of where the cut fell.
    const std::uint64_t cut =
        line.empty() ? 0 : stream.uniform_index(line.size() / 2 + 1);
    std::string mangled(line.substr(0, cut));
    mangled += "\x01#\x7f~";
    return mangled;
}

celsius fault_plan::thermocouple_offset(int dimm) const {
    GB_EXPECTS(dimm >= 0);
    if (config_.thermocouple_fault_rate <= 0.0) {
        return celsius{0.0};
    }
    rng stream(derive_task_seed(config_.seed ^ sensor_fault_domain,
                                static_cast<std::uint64_t>(dimm)));
    if (!stream.bernoulli(config_.thermocouple_fault_rate)) {
        return celsius{0.0};
    }
    return config_.thermocouple_offset;
}

double fault_plan::downtime_for(rig_fault fault) const {
    switch (fault) {
    case rig_fault::none: return 0.0;
    case rig_fault::hang_until_watchdog:
        return config_.watchdog_timeout_s + config_.reboot_s;
    case rig_fault::board_crash: return config_.reboot_s;
    case rig_fault::power_switch_failure:
        return config_.power_cycle_retry_s;
    }
    return 0.0;
}

fault_plan make_uniform_fault_plan(std::uint64_t seed, double fault_rate) {
    GB_EXPECTS(fault_rate >= 0.0 && fault_rate <= 1.0);
    fault_plan_config config;
    config.seed = seed;
    config.hang_rate = fault_rate / 3.0;
    config.crash_rate = fault_rate / 3.0;
    config.power_switch_rate = fault_rate / 3.0;
    config.log_corruption_rate = fault_rate;
    return fault_plan(config);
}

int charge_attempts(
    const fault_plan& plan, std::uint64_t key, int attempts,
    rig_ledger& ledger,
    const std::function<void(int attempt, rig_fault fault)>& on_fault) {
    GB_EXPECTS(attempts >= 1);
    for (int attempt = 0; attempt < attempts; ++attempt) {
        const rig_fault fault = plan.draw(key, attempt);
        if (fault == rig_fault::none) {
            return attempt;
        }
        ledger.watchdog_timeouts +=
            fault == rig_fault::hang_until_watchdog ? 1 : 0;
        ledger.board_crashes += fault == rig_fault::board_crash ? 1 : 0;
        ledger.power_switch_failures +=
            fault == rig_fault::power_switch_failure ? 1 : 0;
        ledger.downtime_s += plan.downtime_for(fault);
        ledger.retries += attempt + 1 < attempts ? 1 : 0;
        if (on_fault) {
            on_fault(attempt, fault);
        }
    }
    ++ledger.exhausted;
    return attempts;
}

// --- silent data corruption ------------------------------------------------

std::string_view to_string(sdc_site site) {
    switch (site) {
    case sdc_site::vmin_flip: return "vmin_flip";
    case sdc_site::weak_drop: return "weak_drop";
    case sdc_site::weak_phantom: return "weak_phantom";
    case sdc_site::power_scale: return "power_scale";
    }
    return "?";
}

bool sdc_site_from_string(std::string_view text, sdc_site& site) {
    for (std::size_t i = 0; i < sdc_site_count; ++i) {
        const auto candidate = static_cast<sdc_site>(i);
        if (text == to_string(candidate)) {
            site = candidate;
            return true;
        }
    }
    return false;
}

sdc_plan::sdc_plan(sdc_plan_config config)
    : config_(std::move(config)), latch_(config_.triggers.size()) {
    for (const sdc_trigger& trigger : config_.triggers) {
        GB_EXPECTS(trigger.at >= 1);
    }
}

std::optional<sdc_corruption> sdc_plan::on_execution() {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t hit = ++opportunities_;
    const auto fired = latch_.fire(
        [&](std::size_t t) { return config_.triggers[t].at == hit; });
    if (!fired) {
        return std::nullopt;
    }
    const sdc_trigger& trigger = config_.triggers[*fired];
    std::uint64_t param = trigger.param;
    if (param == sdc_trigger::param_auto) {
        param = derive_task_seed(config_.seed ^ sdc_domain, hit);
    }
    return sdc_corruption{trigger.site, param};
}

std::uint64_t sdc_plan::injected() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return latch_.count();
}

double sdc_plan::corrupt_vmin(double value_mv, std::uint64_t param) {
    GB_EXPECTS(std::isfinite(value_mv));
    // Binary64 layout: bits [0, 52) are the mantissa.  Flipping one of
    // them always produces a different, still-finite double.
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(value_mv);
    return std::bit_cast<double>(bits ^ (1ULL << (param % 52)));
}

long long sdc_plan::corrupt_weak_cells(long long count, sdc_site site,
                                       std::uint64_t param) {
    const long long delta = 1 + static_cast<long long>(param % 3);
    return site == sdc_site::weak_drop ? count - delta : count + delta;
}

double sdc_plan::corrupt_power(double watts, std::uint64_t param) {
    GB_EXPECTS(std::isfinite(watts));
    const std::uint64_t permille = 1 + param % 100;
    const double factor =
        (param % 2 == 0) ? (1000.0 + static_cast<double>(permille)) / 1000.0
                         : (1000.0 - static_cast<double>(permille)) / 1000.0;
    return watts * factor;
}

bool parse_sdc_spec(std::string_view spec, sdc_plan_config& config,
                    std::string& error) {
    sdc_trigger trigger;
    return parse_trigger_spec(
        spec, {"sdc", "param", "an integer parameter"},
        [&](std::string_view site) {
            return sdc_site_from_string(site, trigger.site);
        },
        [&](const trigger_token& token) {
            trigger.at = token.at;
            trigger.param = token.param.value_or(sdc_trigger::param_auto);
            config.triggers.push_back(trigger);
        },
        error);
}

} // namespace gb
