// The four closed-loop workloads of the benchmark.  Each one builds its
// state from the workload seed in `setup`, then runs ops back to back on
// the driver thread; every op returns a digest of its output keyed by the
// generated input it ran on, so the driver can check that the same input
// always produces the same bytes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// FNV-1a over little-endian 64-bit words, the fold `content.hash` uses.
class fnv1a {
public:
    static constexpr std::uint64_t basis = 14695981039346656037ULL;

    void fold(std::uint64_t value) {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (value >> (8 * byte)) & 0xffU;
            hash_ *= 1099511628211ULL;
        }
    }
    void fold_double(double value);
    [[nodiscard]] std::uint64_t value() const { return hash_; }

private:
    std::uint64_t hash_ = basis;
};

struct run_context {
    std::uint64_t seed = 0;
    /// CPUs this process may run on; engine workers never exceed it.
    int nproc = 1;
    /// Private scratch directory for journals and state files.
    std::string tmp_dir;
    /// The run records spans and feeds the services' metrics sinks.
    bool traced = false;
};

struct op_result {
    std::uint64_t key = 0;    ///< identifies the generated input
    std::uint64_t digest = 0; ///< content digest of the output
    std::string error;        ///< non-empty: an output check failed
};

struct metric {
    double value = 0.0;
    std::string unit;
};
using metric_map = std::map<std::string, metric>;

/// A digest a check produced away from the op that owns its key (setup
/// references, post-run replays).
struct keyed_digest {
    std::uint64_t key = 0;
    std::uint64_t digest = 0;
};

class workload {
public:
    virtual ~workload() = default;

    /// Build everything the first op needs.
    virtual void setup(span_log* trace) = 0;
    /// Run op `index`; `trace` is non-null only for traced ops.
    virtual op_result run_op(std::uint64_t index, span_log* trace) = 0;
    /// Traced runs only: time the layer calls behind op `index` one at a
    /// time, outside the op's own span.  Returns an error or "".
    virtual std::string replay(std::uint64_t /*index*/, span_log& /*trace*/) {
        return {};
    }
    /// Reference digests established during setup.
    [[nodiscard]] virtual std::vector<keyed_digest> references() const {
        return {};
    }
    /// After the measured phase: re-derive op outputs another way and
    /// return them for comparison; errors are (op index, message).
    virtual std::vector<keyed_digest> verify(
        span_log* /*trace*/,
        std::vector<std::pair<std::uint64_t, std::string>>& /*errors*/) {
        return {};
    }
    /// Traced runs only: per-layer metrics beyond plain span means.
    virtual void layer_metrics(const span_log& /*trace*/,
                               metric_map& /*out*/) const {}
};

[[nodiscard]] const std::vector<std::string>& workload_names();
/// Null for an unknown name.
[[nodiscard]] std::unique_ptr<workload> make_workload(
    const std::string& name, const run_context& context);
/// Setups per run whose median is `setup_s`.
[[nodiscard]] int setup_repetitions(const std::string& name);

} // namespace perfbench
