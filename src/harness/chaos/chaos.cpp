#include "harness/chaos/chaos.hpp"

#include <unistd.h>

#include "harness/execution_engine.hpp"
#include "util/contracts.hpp"

namespace gb {

namespace {

// Domain separator for torn-length derivation, so chaos draws never alias
// the rig-fault or task-seed streams built from the same campaign seed.
constexpr std::uint64_t tear_domain = 0x746f726e2d777274ULL;

constexpr std::size_t site_count = 6;

std::size_t site_index(chaos_site site) {
    return static_cast<std::size_t>(site);
}

} // namespace

std::string_view to_string(chaos_site site) {
    switch (site) {
    case chaos_site::journal_append: return "journal_append";
    case chaos_site::snapshot_temp: return "snapshot_temp";
    case chaos_site::snapshot_rename: return "snapshot_rename";
    case chaos_site::control_command: return "control_command";
    case chaos_site::cache_warm: return "cache_warm";
    case chaos_site::timeline_append: return "timeline_append";
    }
    return "?";
}

bool chaos_site_from_string(std::string_view text, chaos_site& site) {
    for (std::size_t i = 0; i < site_count; ++i) {
        const auto candidate = static_cast<chaos_site>(i);
        if (text == to_string(candidate)) {
            site = candidate;
            return true;
        }
    }
    return false;
}

chaos_crash::chaos_crash(chaos_site site)
    : std::runtime_error("chaos kill-point fired at " +
                         std::string(to_string(site))),
      site_(site) {}

chaos_plan::chaos_plan(chaos_plan_config config)
    : config_(std::move(config)), latch_(config_.triggers.size()) {
    for (const chaos_trigger& trigger : config_.triggers) {
        GB_EXPECTS(trigger.at >= 1);
    }
}

std::uint64_t chaos_plan::derive_keep(std::uint64_t hit, std::uint64_t size,
                                      std::uint64_t keep) const {
    if (size == 0) {
        return 0;
    }
    if (keep != chaos_trigger::keep_auto) {
        return keep < size ? keep : size - 1;
    }
    // Strictly partial: somewhere in [0, size) so the payload's trailing
    // newline (journal) or tail (snapshot temp) never reaches disk.
    const std::uint64_t draw =
        derive_task_seed(config_.seed ^ tear_domain, hit);
    return draw % size;
}

std::optional<chaos_trigger> chaos_plan::fire(chaos_site site,
                                              std::uint64_t written,
                                              std::uint64_t size) {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t hit = ++hits_[site_index(site)];
    const auto fired = latch_.fire([&](std::size_t t) {
        const chaos_trigger& trigger = config_.triggers[t];
        if (trigger.site != site) {
            return false;
        }
        return site == chaos_site::journal_append
                   ? written < trigger.at && written + size >= trigger.at
                   : hit == trigger.at;
    });
    if (!fired) {
        return std::nullopt;
    }
    return config_.triggers[*fired];
}

std::optional<chaos_tear> chaos_plan::tear(chaos_site site,
                                           std::uint64_t written,
                                           std::uint64_t size) {
    const std::optional<chaos_trigger> trigger = fire(site, written, size);
    if (!trigger) {
        return std::nullopt;
    }
    return chaos_tear{site, derive_keep(trigger->at, size, trigger->keep)};
}

std::optional<chaos_tear> chaos_plan::on_journal_append(std::uint64_t written,
                                                        std::uint64_t size) {
    return tear(chaos_site::journal_append, written, size);
}

std::optional<chaos_tear> chaos_plan::on_snapshot_temp(std::uint64_t size) {
    return tear(chaos_site::snapshot_temp, 0, size);
}

bool chaos_plan::on_snapshot_rename() {
    return fire(chaos_site::snapshot_rename).has_value();
}

bool chaos_plan::on_control_command() {
    return fire(chaos_site::control_command).has_value();
}

bool chaos_plan::on_cache_warm_line() {
    return fire(chaos_site::cache_warm).has_value();
}

std::optional<chaos_tear> chaos_plan::on_timeline_append(std::uint64_t size) {
    return tear(chaos_site::timeline_append, 0, size);
}

void chaos_plan::kill(chaos_site site) const {
    if (config_.mode == chaos_plan_config::kill_mode::exit_process) {
        // No unwinding, no flushes: the closest userspace gets to yanking
        // the power cord mid-write.
        ::_exit(config_.exit_code);
    }
    throw chaos_crash(site);
}

std::uint64_t chaos_plan::fired() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return latch_.count();
}

bool parse_chaos_spec(std::string_view spec, chaos_plan_config& config,
                      std::string& error) {
    chaos_trigger trigger;
    return parse_trigger_spec(
        spec, {"chaos", "keep", "an integer torn length"},
        [&](std::string_view site) {
            return chaos_site_from_string(site, trigger.site);
        },
        [&](const trigger_token& token) {
            trigger.at = token.at;
            trigger.keep = token.param.value_or(chaos_trigger::keep_auto);
            config.triggers.push_back(trigger);
        },
        error);
}

double replan_backoff_s(double base_s, int round) {
    GB_EXPECTS(base_s >= 0.0);
    GB_EXPECTS(round >= 1);
    double backoff = base_s;
    for (int r = 1; r < round; ++r) {
        backoff *= 2.0;
    }
    return backoff;
}

} // namespace gb
