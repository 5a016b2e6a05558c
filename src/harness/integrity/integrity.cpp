#include "harness/integrity/integrity.hpp"

#include "harness/execution_engine.hpp"
#include "util/contracts.hpp"

namespace gb {

namespace {

// Domain separator so rig assignment never aliases the fault, chaos or
// task-seed streams derived from the same campaign seed.
constexpr std::uint64_t rig_domain = 0x7269672d61736e74ULL;

} // namespace

std::uint64_t chain_next(std::uint64_t prev, std::string_view payload) {
    return fnv1a_bytes(fnv1a_word(chain_basis, prev), payload);
}

std::uint64_t rig_for(std::uint64_t seed, std::uint64_t content,
                      int replica, std::uint64_t rigs) {
    GB_EXPECTS(rigs >= 1);
    GB_EXPECTS(replica >= 0);
    const std::uint64_t base =
        derive_task_seed(seed ^ rig_domain, content);
    return (base + static_cast<std::uint64_t>(replica)) % rigs;
}

rig_reputation::rig_reputation(rig_reputation_config config)
    : config_(config) {
    GB_EXPECTS(config_.blacklist_threshold >= 1);
}

bool rig_reputation::record_dissent(std::uint64_t rig) {
    ++dissents_;
    const std::uint64_t count = ++dissent_counts_[rig];
    if (count == config_.blacklist_threshold) {
        ++blacklisted_;
        return true;
    }
    return false;
}

bool rig_reputation::blacklisted(std::uint64_t rig) const {
    const auto it = dissent_counts_.find(rig);
    return it != dissent_counts_.end() &&
           it->second >= config_.blacklist_threshold;
}

} // namespace gb
