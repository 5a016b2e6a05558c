// Model-backed characterization probe for simulated X-Gene2 fleets.
//
// `make_xgene2_probe` binds a `probe_fn` (service.hpp) to the library's
// chip/workload models so the fleet daemon, benches and tests
// characterize realistic cohorts without wiring the stack by hand:
//
//   * corner      -> the paper-calibrated canonical chip (TTT/TFF/TSS);
//                    a nonzero cohort `variant` draws a jittered chip of
//                    that corner instead (unique-silicon fleets);
//   * class c     -> an 8-core SPEC2006 mix starting at suite index c;
//   * op p        -> core frequency nominal - 150 MHz * p (requirements
//                    relax along the V/F slope as p grows);
//   * sweep_mv    -> extra deployment guard on top of the revealed Vmin.
//
// The returned probe is a pure function of the request (profiles and
// their local-droop memos are served from one concurrent-safe profile
// cache shared by every corner), so it is safe to call from engine
// workers and its results are reproducible bitwise.
#pragma once

#include "fleet/fleet.hpp"
#include "fleet/service.hpp"

namespace gb::fleet {

[[nodiscard]] probe_fn make_xgene2_probe(const fleet_spec& spec);

} // namespace gb::fleet
