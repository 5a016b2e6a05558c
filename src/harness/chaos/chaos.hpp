// Deterministic chaos harness for the persistence seams of long-lived
// services (the fleet daemon foremost).
//
// The rig-fault plan (fault_injection.hpp) makes the *experiments* fail;
// this module makes the *service itself* fail, the way Scrooge-style
// undervolted servers do: killed mid-write, torn lines at the end of a
// journal, a snapshot temp file that never got renamed, a control command
// half-acknowledged.  A `chaos_plan` mirrors `fault_plan`'s design --
// every decision is a pure function of (plan seed, site, hit count), so a
// chaotic run is exactly as reproducible as a healthy one -- but instead
// of per-task draws it arms one-shot *kill-points* at named persistence
// seams:
//
//   * journal_append   -- torn/short write once N cumulative bytes have
//                         been appended (the line's tail never hits disk);
//   * snapshot_temp    -- killed mid temp-file write (torn temp), before
//                         the atomic rename;
//   * snapshot_rename  -- temp fully written, killed before rename(2)
//                         (reader keeps the previous snapshot);
//   * control_command  -- killed after acting on a control command but
//                         before the truncation ack (at-least-once
//                         redelivery on restart);
//   * cache_warm       -- killed while warming the cache from the journal
//                         on restart (recovery of the recovery path);
//   * timeline_append  -- torn/short write of an observatory record
//                         (timeline sample, alert event or epoch seal) on
//                         the hit-counted append of such a record.
//
// Firing either throws `chaos_crash` (in-process harnesses abandon the
// service object and restart from the on-disk bytes) or `_exit`s the
// process (the daemon, simulating `kill -9`: no destructors, no flushes).
// Recovery is then a *verified property*: fleet/recovery.hpp restarts
// from the post-crash bytes and asserts bitwise convergence with an
// unfaulted run.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/wire.hpp"

namespace gb {

/// A named persistence seam a kill-point can arm.
enum class chaos_site : std::uint8_t {
    journal_append,
    snapshot_temp,
    snapshot_rename,
    control_command,
    cache_warm,
    timeline_append,
};

[[nodiscard]] std::string_view to_string(chaos_site site);
[[nodiscard]] bool chaos_site_from_string(std::string_view text,
                                          chaos_site& site);

/// Thrown by `chaos_plan::kill` in throw mode, after the seam's partial
/// side effect (torn bytes, missing rename) is already on disk.  Catchers
/// must abandon the service object -- its in-memory state died with the
/// "process" -- and restart from the on-disk bytes.
class chaos_crash : public std::runtime_error {
public:
    explicit chaos_crash(chaos_site site);
    [[nodiscard]] chaos_site site() const { return site_; }

private:
    chaos_site site_;
};

/// One armed kill-point.  Each trigger fires at most once per plan.
struct chaos_trigger {
    chaos_site site = chaos_site::journal_append;
    /// `journal_append`: fire on the append that makes cumulative payload
    /// bytes reach `at`.  Every other site: fire on the `at`-th hit of
    /// the seam (1-based).
    std::uint64_t at = 1;
    /// Torn-write length for `journal_append`/`snapshot_temp`: bytes of
    /// the in-flight payload that reach disk before the kill.
    /// `keep_auto` derives a strictly-partial length from the plan seed.
    static constexpr std::uint64_t keep_auto = ~0ULL;
    std::uint64_t keep = keep_auto;
};

struct chaos_plan_config {
    /// Root of the deterministic torn-length derivation.
    std::uint64_t seed = 0;
    std::vector<chaos_trigger> triggers;
    /// What firing does.  `throw_crash` raises `chaos_crash` (in-process
    /// harnesses); `exit_process` calls `_exit(exit_code)` -- no stack
    /// unwinding, no stream flushes, the closest userspace gets to a
    /// power cut.
    enum class kill_mode : std::uint8_t { throw_crash, exit_process };
    kill_mode mode = kill_mode::throw_crash;
    int exit_code = 42;
};

/// A torn-write decision: write exactly `keep` bytes of the in-flight
/// payload, then die at `site`.
struct chaos_tear {
    chaos_site site = chaos_site::journal_append;
    std::uint64_t keep = 0;
};

class chaos_plan {
public:
    explicit chaos_plan(chaos_plan_config config);

    /// Journal seam: about to append `size` payload bytes on top of
    /// `written` cumulative bytes.  Engaged when a `journal_append`
    /// trigger's byte threshold falls inside this append.
    [[nodiscard]] std::optional<chaos_tear> on_journal_append(
        std::uint64_t written, std::uint64_t size);
    /// Snapshot temp-write seam (hit-counted); `size` bounds the tear.
    [[nodiscard]] std::optional<chaos_tear> on_snapshot_temp(
        std::uint64_t size);
    /// Snapshot rename seam: true means die before the rename.
    [[nodiscard]] bool on_snapshot_rename();
    /// Control seam: true means die after acting, before the ack.
    [[nodiscard]] bool on_control_command();
    /// Cache-warm seam, hit once per journal line read during warm.
    [[nodiscard]] bool on_cache_warm_line();
    /// Observatory seam, hit once per timeline/alert/seal record about to
    /// be journaled (hit-counted); `size` bounds the tear.
    [[nodiscard]] std::optional<chaos_tear> on_timeline_append(
        std::uint64_t size);

    /// Execute the kill decision for `site`: throw `chaos_crash` or
    /// `_exit` depending on the configured mode.  The caller must have
    /// already performed the seam's partial side effect.
    [[noreturn]] void kill(chaos_site site) const;

    /// Triggers that have fired so far.
    [[nodiscard]] std::uint64_t fired() const;

    [[nodiscard]] const chaos_plan_config& config() const { return config_; }

private:
    /// Count a hit of `site` and fire its first unfired matching trigger:
    /// `journal_append` on the append of `size` bytes on top of `written`
    /// that reaches the byte threshold, every other site on its `at`-th
    /// hit.
    std::optional<chaos_trigger> fire(chaos_site site,
                                      std::uint64_t written = 0,
                                      std::uint64_t size = 0);
    /// `fire`, then the torn length of the `size`-byte payload.
    std::optional<chaos_tear> tear(chaos_site site, std::uint64_t written,
                                   std::uint64_t size);
    [[nodiscard]] std::uint64_t derive_keep(std::uint64_t hit,
                                            std::uint64_t size,
                                            std::uint64_t keep) const;

    chaos_plan_config config_;
    mutable std::mutex mutex_;
    trigger_latch latch_;
    std::uint64_t hits_[6] = {0, 0, 0, 0, 0, 0}; ///< per-site seam hits
};

/// Parse a CLI chaos spec: comma-separated `site@at[/keep]` triggers,
/// e.g. `journal_append@6000,snapshot_rename@2`.  False (with a
/// diagnostic in `error`) on malformed input; parsed triggers are
/// appended to `config.triggers`.
[[nodiscard]] bool parse_chaos_spec(std::string_view spec,
                                    chaos_plan_config& config,
                                    std::string& error);

/// Virtual seconds a probe is charged before re-plan round `round`
/// (1-based): `base_s * 2^(round-1)`.  Pure and deterministic -- the
/// degraded-mode backoff schedule tests pin it exactly.
[[nodiscard]] double replan_backoff_s(double base_s, int round);

} // namespace gb
