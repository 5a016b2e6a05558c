// Whole-file artifact publication: every status snapshot, fleet state,
// trace, metrics, timeline and Prometheus file lands through here.  The
// bytes go to a sibling temp file that is renamed over the target, so a
// reader polling the path sees the previous file or the new one, never a
// prefix -- even mid-crash.
#pragma once

#include <string>
#include <string_view>

namespace gb {

class chaos_plan;

/// Atomically replace `path` with `bytes` via a sibling `path.tmp` and
/// rename(2).  Returns false (and leaves any previous file intact) on I/O
/// errors.  With a `chaos` plan, the snapshot_temp and snapshot_rename
/// kill-points fire here.
bool publish_atomic(const std::string& path, std::string_view bytes,
                    chaos_plan* chaos = nullptr);

/// publish_atomic for a command-line tool's artifact: false, with
/// "<tool>: cannot write <path>" on stderr, when the bytes did not land.
bool publish_artifact(std::string_view tool, const std::string& path,
                      std::string_view bytes);

} // namespace gb
