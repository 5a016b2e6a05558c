#include "harness/profile_cache.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace gb {

const cached_profile& profile_cache::get(const kernel& program,
                                         megahertz frequency) {
    GB_EXPECTS(!program.empty());
    const auto key = std::make_pair(program.name,
                                    std::lround(frequency.value));
    slot* entry = nullptr;
    {
        std::shared_lock<std::shared_mutex> read(mutex_);
        auto it = slots_.find(key);
        if (it != slots_.end()) {
            entry = it->second.get();
        }
    }
    if (entry == nullptr) {
        std::unique_lock<std::shared_mutex> write(mutex_);
        entry = slots_.try_emplace(key, std::make_unique<slot>())
                    .first->second.get();
    }
    // First caller profiles the kernel; concurrent callers for the same key
    // block here until the profile is ready.  The pipeline execution runs
    // outside the map lock so unrelated keys proceed in parallel.
    std::call_once(entry->once, [&] {
        const pipeline_model pipeline(frequency);
        entry->value = std::make_unique<cached_profile>(
            pipeline.execute(program, 8192));
    });
    return *entry->value;
}

} // namespace gb
