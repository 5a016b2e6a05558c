// Execution-profile cache: kernels are executed once per (kernel,
// frequency) and the profile -- plus the memo of its local PDN droop --
// is reused by every evaluation that asks again.
//
// A profile depends only on (kernel, frequency) (`pipeline_model(f)
// .execute(program, 8192)`), not on the chip, so one cache can serve any
// number of chips: the characterization framework owns one, and the fleet
// probe bank shares one across all its corners and silicon variants.
// The droop memo lives in the entry, so it dies with the profile it
// describes; it is keyed by the local PDN's parameters, so chips with the
// same local loop share it and chips with a different one never read it.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>

#include "chip/chip_model.hpp"
#include "isa/kernel.hpp"
#include "isa/pipeline.hpp"
#include "util/units.hpp"

namespace gb {

/// One cached profile and the memo of its local droop.
struct cached_profile {
    execution_profile profile;
    local_droop_memo local_droop;

    /// `profile` on `core` at `frequency`, carrying the droop memo.
    [[nodiscard]] core_assignment on_core(int core,
                                          megahertz frequency) const {
        return core_assignment{core, &profile, frequency, &local_droop};
    }
};

class profile_cache {
public:
    /// The cached profile of a kernel at a frequency.  Safe to call
    /// concurrently: the cache is a read-mostly map with per-entry
    /// single-initialization (one thread profiles, the rest wait).  The
    /// entry's address is stable for the cache's lifetime.
    [[nodiscard]] const cached_profile& get(const kernel& program,
                                            megahertz frequency);

private:
    /// A slot is created under the map lock, then initialized exactly once
    /// outside it.
    struct slot {
        std::once_flag once;
        std::unique_ptr<cached_profile> value;
    };

    /// Keyed by (kernel name, frequency in MHz).
    std::shared_mutex mutex_;
    std::map<std::pair<std::string, long>, std::unique_ptr<slot>> slots_;
};

} // namespace gb
