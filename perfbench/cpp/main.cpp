// Single-process benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --tmp-dir DIR [--spans FILE] [--ops N] [--poison-digest]
//
// --trace 0 runs one workload as a closed loop (one client, ops back to
// back) and prints the end-to-end metrics.  --trace 1 runs every workload
// with spans around each layer call (the named workload first) and prints
// the per-layer metrics plus each workload's tracing overhead.  Either way
// the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Every op's digest is checked against the digest of the same generated
// input (an earlier op, a setup reference or a post-run replay); an op
// that fails any check counts as failed.  --poison-digest flips the
// reference of the first op's input, which must surface as a failed op.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ctime>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "harness/execution_engine.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct options {
    std::string workload;
    std::uint64_t seed = 2018;
    double seconds = 10.0;
    bool trace = false;
    std::string tmp_dir;
    std::string spans_path;
    std::uint64_t fixed_ops = 0; ///< nonzero: run exactly this many ops
    bool poison = false;
};

/// At least this many measured ops, so ten samples lie beyond op_p90.
constexpr std::uint64_t min_ops = 100;

double seconds_since(std::int64_t start_ns) {
    return static_cast<double>(now_ns() - start_ns) / 1e9;
}

double cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int cpu_count() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        return std::max(1, CPU_COUNT(&set));
    }
    return 1;
}

/// Linear-interpolation quantile (numpy's default) of unsorted samples.
double quantile(std::vector<double> values, double q) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - std::floor(pos));
}

volatile std::uint64_t spin_sink = 0;

/// A fixed dependent ALU chain: the host-speed sentinel.  No change to the
/// repository can move it, so a shift in it between runs is the host.
double host_spin_ms() {
    const std::int64_t start = now_ns();
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 30000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    spin_sink = x;
    return static_cast<double>(now_ns() - start) / 1e6;
}

/// Reference digest per generated input, and the ops that failed a check.
class checker {
public:
    explicit checker(bool poison) : poison_(poison) {}

    void reference(const keyed_digest& d) {
        book_.emplace(d.key, entry{d.digest, std::nullopt});
    }

    void op(std::uint64_t index, const op_result& result) {
        ++attempted_;
        if (!result.error.empty()) {
            fail(index, result.error);
        }
        const auto [it, fresh] =
            book_.emplace(result.key, entry{result.digest, index});
        if (!fresh && it->second.digest != result.digest) {
            fail(index, "digest differs from the reference for its input");
        }
        if (poison_ && attempted_ == 1) {
            it->second.digest ^= 1;
        }
    }

    /// A re-derived digest must match the op that first produced the key.
    void replayed(const keyed_digest& d) {
        const auto it = book_.find(d.key);
        if (it == book_.end()) {
            errors_.push_back("replayed an input no op ran");
        } else if (it->second.digest != d.digest) {
            fail(it->second.owner.value_or(0),
                 "replayed digest differs from the op's");
        }
    }

    void fail(std::uint64_t index, const std::string& why) {
        if (failed_.insert(index).second && failed_.size() <= 5) {
            std::cerr << "perfbench: op " << index << " failed: " << why
                      << '\n';
        }
    }

    [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const { return failed_.size(); }
    [[nodiscard]] bool correct() const {
        return failed_.empty() && errors_.empty();
    }

private:
    struct entry {
        std::uint64_t digest = 0;
        std::optional<std::uint64_t> owner;
    };
    bool poison_;
    std::map<std::uint64_t, entry> book_;
    std::set<std::uint64_t> failed_;
    std::vector<std::string> errors_;
    std::uint64_t attempted_ = 0;
};

/// Post-run checks shared by both modes.
void verify(workload& w, span_log* trace, checker& check) {
    std::vector<std::pair<std::uint64_t, std::string>> errors;
    for (const keyed_digest& d : w.verify(trace, errors)) {
        check.replayed(d);
    }
    for (const auto& [index, why] : errors) {
        check.fail(index, why);
    }
}

std::string format_number(double value) {
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, res.ptr);
}

void print_result(const checker& check, const metric_map& metrics) {
    std::cout << "{\"correct\": " << (check.correct() ? "true" : "false")
              << ", \"attempted\": " << check.attempted()
              << ", \"failed\": " << check.failed() << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics) {
        std::cout << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
                  << format_number(m.value) << ", \"unit\": \"" << m.unit
                  << "\"}";
        first = false;
    }
    std::cout << "}}" << std::endl;
}

run_context context_for(const options& opt, bool traced) {
    run_context ctx;
    ctx.seed = opt.seed;
    ctx.nproc = cpu_count();
    ctx.tmp_dir = opt.tmp_dir;
    ctx.traced = traced;
    return ctx;
}

int run_untraced(const options& opt) {
    const double spin_start = host_spin_ms();
    const run_context ctx = context_for(opt, false);

    // setup_s: median over several complete set-ups, each from nothing to
    // the first op being ready; the last one serves the measured phase.
    std::vector<double> setups;
    std::unique_ptr<workload> w;
    for (int r = 0; r < setup_repetitions(opt.workload); ++r) {
        w.reset();
        const std::int64_t start = now_ns();
        w = make_workload(opt.workload, ctx);
        w->setup(nullptr);
        setups.push_back(seconds_since(start));
    }

    checker check(opt.poison);
    for (const keyed_digest& d : w->references()) {
        check.reference(d);
    }
    std::vector<double> latency_ms;
    const double cpu_start = cpu_seconds();
    const std::int64_t start = now_ns();
    for (std::uint64_t i = 0;; ++i) {
        const bool more = opt.fixed_ops != 0
                              ? i < opt.fixed_ops
                              : seconds_since(start) < opt.seconds ||
                                    i < min_ops;
        if (!more) {
            break;
        }
        const std::int64_t op_start = now_ns();
        const op_result result = w->run_op(i, nullptr);
        latency_ms.push_back(static_cast<double>(now_ns() - op_start) / 1e6);
        check.op(i, result);
    }
    const double wall = seconds_since(start);
    const double cpu = cpu_seconds() - cpu_start;
    const auto ops = static_cast<double>(latency_ms.size());

    verify(*w, nullptr, check);
    w.reset();
    const double spin_end = host_spin_ms();

    metric_map metrics;
    metrics["setup_s"] = {quantile(setups, 0.5), "s"};
    metrics["op_p50_ms"] = {quantile(latency_ms, 0.5), "ms"};
    metrics["op_p90_ms"] = {quantile(latency_ms, 0.9), "ms"};
    metrics["ops_per_s"] = {ops / wall, "1/s"};
    metrics["cpu_ms_per_op"] = {cpu * 1000.0 / ops, "ms"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    std::cout << "host.spin_ms start=" << format_number(spin_start)
              << " end=" << format_number(spin_end) << " nproc="
              << ctx.nproc << '\n';
    print_result(check, metrics);
    return 0;
}

/// Span name -> per-layer metric (mean per call, scaled to the unit).
struct span_metric {
    const char* span;
    const char* metric;
    const char* unit;
    double scale;
};
constexpr span_metric span_metrics[] = {
    {"isa.execute", "isa.execute_ms", "ms", 1.0},
    {"harness.profile_of", "harness.profile_of_ms", "ms", 1.0},
    {"pdn.worst_droop", "pdn.worst_droop_ms", "ms", 1.0},
    {"chip.analyze", "chip.analyze_ms", "ms", 1.0},
    {"chip.evaluate_at", "chip.evaluate_at_us", "us", 1000.0},
    {"harness.find_vmin", "harness.find_vmin_ms", "ms", 1.0},
    {"core.most_robust_core", "core.most_robust_core_ms", "ms", 1.0},
    {"core.characterize_suite", "core.characterize_suite_ms", "ms", 1.0},
    {"harness.vmin_suite_nproc", "harness.vmin_suite_nproc_ms", "ms", 1.0},
    {"harness.engine_dispatch", "harness.engine_dispatch_us", "us", 1000.0},
    {"harness.engine_dispatch_1w", "harness.engine_dispatch_1w_us", "us",
     1000.0},
    {"harness.dram_campaign_nproc", "harness.dram_campaign_nproc_ms", "ms",
     1.0},
    {"dram.build", "dram.build_ms", "ms", 1.0},
    {"thermal.soak", "thermal.soak_ms", "ms", 1.0},
    {"dram.dpbench", "dram.dpbench_ms", "ms", 1.0},
    {"fleet.census", "fleet.census_ms", "ms", 1.0},
    {"fleet.node_derive", "fleet.node_derive_ms", "ms", 1.0},
    {"fleet.campaign_warm", "fleet.campaign_warm_ms", "ms", 1.0},
    {"fleet.snapshot", "fleet.snapshot_ms", "ms", 1.0},
    {"fleet.probe", "fleet.probe_ms", "ms", 1.0},
    {"fleet.campaign_cold", "fleet.campaign_cold_ms", "ms", 1.0},
    {"fleet.campaign_cold_nproc", "fleet.campaign_cold_nproc_ms", "ms", 1.0},
    {"fleet.publish", "fleet.publish_ms", "ms", 1.0},
    {"fleet.restart", "fleet.restart_ms", "ms", 1.0},
};

/// execution_engine::run over no-op tasks: the fixed cost of one dispatch
/// (thread spawn + join) at 1 and at nproc workers.
void time_engine_dispatch(span_log& trace, int nproc) {
    constexpr std::uint64_t calls = 200;
    for (const int workers : {1, nproc}) {
        gb::execution_options options;
        options.workers = workers;
        const gb::execution_engine engine(options);
        scoped_span s(&trace,
                      workers == nproc ? "harness.engine_dispatch"
                                       : "harness.engine_dispatch_1w",
                      -1, calls);
        for (std::uint64_t c = 0; c < calls; ++c) {
            (void)engine.run(static_cast<std::size_t>(4 * workers),
                             [](const gb::task_context&) { return -1; });
        }
    }
}

int run_traced(const options& opt) {
    const double spin_start = host_spin_ms();
    const run_context ctx = context_for(opt, true);
    span_log trace;
    checker check(opt.poison);
    metric_map metrics;

    std::vector<std::string> order{opt.workload};
    for (const std::string& name : workload_names()) {
        if (name != opt.workload) {
            order.push_back(name);
        }
    }
    const double budget = opt.seconds / static_cast<double>(order.size());
    // Op indices stay unique across workloads so failures and spans name
    // one op.
    std::uint64_t base = 0;
    for (const std::string& name : order) {
        std::unique_ptr<workload> w = make_workload(name, ctx);
        {
            scoped_span s(&trace, "setup", -1);
            w->setup(&trace);
        }
        for (const keyed_digest& d : w->references()) {
            check.reference(d);
        }
        // Ops alternate untraced / traced, so the tracing overhead is
        // measured on interleaved samples.
        std::vector<double> plain_ms;
        std::vector<double> traced_ms;
        const std::int64_t start = now_ns();
        std::uint64_t i = 0;
        for (;; ++i) {
            const bool more = opt.fixed_ops != 0
                                  ? i < opt.fixed_ops
                                  : seconds_since(start) < budget || i < 8;
            if (!more) {
                break;
            }
            const bool traced = i % 2 == 1;
            const auto op = static_cast<std::int64_t>(base + i);
            op_result result;
            const std::int64_t op_start = now_ns();
            if (traced) {
                scoped_span s(&trace, name.c_str(), op);
                result = w->run_op(i, &trace);
            } else {
                result = w->run_op(i, nullptr);
            }
            (traced ? traced_ms : plain_ms)
                .push_back(static_cast<double>(now_ns() - op_start) / 1e6);
            check.op(base + i, result);
            if (traced) {
                const std::string error = w->replay(i, trace);
                if (!error.empty()) {
                    check.fail(base + i, error);
                }
            }
        }
        verify(*w, &trace, check);
        w->layer_metrics(trace, metrics);
        metrics["trace.overhead_pct." + name] = {
            (quantile(traced_ms, 0.5) / quantile(plain_ms, 0.5) - 1.0) * 100.0,
            "%"};
        base += i;
    }
    time_engine_dispatch(trace, ctx.nproc);

    const std::map<std::string, span_totals> totals = trace.totals();
    for (const span_metric& m : span_metrics) {
        const auto it = totals.find(m.span);
        if (it == totals.end()) {
            std::cerr << "perfbench: no spans for " << m.span << '\n';
            return 1;
        }
        metrics[m.metric] = {it->second.ms_per_call() * m.scale, m.unit};
    }
    const double spin_end = host_spin_ms();
    metrics["host.spin_ms"] = {(spin_start + spin_end) / 2.0, "ms"};
    if (!opt.spans_path.empty() && !trace.write(opt.spans_path)) {
        std::cerr << "perfbench: cannot write " << opt.spans_path << '\n';
        return 1;
    }
    print_result(check, metrics);
    return 0;
}

std::optional<options> parse(int argc, char** argv) {
    options opt;
    opt.workload = workload_names().front();
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--poison-digest") {
            opt.poison = true;
            continue;
        }
        if (i + 1 >= argc) {
            return std::nullopt;
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                opt.workload = value;
            } else if (flag == "--seed") {
                opt.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                opt.seconds = std::stod(value);
            } else if (flag == "--trace") {
                opt.trace = std::stoi(value) != 0;
            } else if (flag == "--tmp-dir") {
                opt.tmp_dir = value;
            } else if (flag == "--spans") {
                opt.spans_path = value;
            } else if (flag == "--ops") {
                opt.fixed_ops = std::stoull(value);
            } else {
                return std::nullopt;
            }
        } catch (const std::exception&) {
            return std::nullopt;
        }
    }
    const auto& names = workload_names();
    if (std::find(names.begin(), names.end(), opt.workload) == names.end() ||
        opt.tmp_dir.empty() || !(opt.seconds > 0.0)) {
        return std::nullopt;
    }
    return opt;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
    const std::optional<perfbench::options> opt = perfbench::parse(argc, argv);
    if (!opt) {
        std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                     "--trace 0|1 --tmp-dir DIR [--spans FILE] [--ops N] "
                     "[--poison-digest]\n";
        return 2;
    }
    try {
        return opt->trace ? perfbench::run_traced(*opt)
                          : perfbench::run_untraced(*opt);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 1;
    }
}
