#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <filesystem>
#include <set>
#include <sstream>

#include "chip/chip_model.hpp"
#include "chip/corners.hpp"
#include "dram/topology.hpp"
#include "fleet/probe.hpp"
#include "fleet/service.hpp"
#include "harness/dram_campaign.hpp"
#include "harness/framework.hpp"
#include "harness/trace/metrics.hpp"
#include "thermal/plant.hpp"
#include "thermal/testbed.hpp"
#include "util/rng.hpp"
#include "workloads/cpu_profiles.hpp"

namespace perfbench {

void fnv1a::fold_double(double value) {
    fold(std::bit_cast<std::uint64_t>(value));
}

namespace {

namespace fs = std::filesystem;
using namespace gb;

/// Distinct values from `count` draws of the seed's splitmix64 stream,
/// mapped into [lo, lo + span).
std::vector<std::int64_t> distinct_draws(std::uint64_t seed, std::size_t count,
                                         std::int64_t lo, std::uint64_t span) {
    std::uint64_t state = seed;
    std::vector<std::int64_t> out;
    while (out.size() < count) {
        const auto value =
            lo + static_cast<std::int64_t>(splitmix64(state) % span);
        if (std::find(out.begin(), out.end(), value) == out.end()) {
            out.push_back(value);
        }
    }
    return out;
}

std::uint64_t key_of(std::uint64_t workload_tag, std::uint64_t input) {
    fnv1a h;
    h.fold(workload_tag);
    h.fold(input);
    return h.value();
}

// --- vmin_suite ---------------------------------------------------------

/// Fig 4's per-chip unit: find the most robust core with milc, then the
/// safe Vmin of all ten SPEC CPU2006 programs on it (10 repetitions per
/// voltage step), on a freshly built chip and framework.  The calls mirror
/// guardband_explorer::most_robust_core and ::characterize_suite, which
/// take their engine width from the environment; here the width is the
/// explicit find_vmin argument.
class vmin_suite final : public workload {
public:
    explicit vmin_suite(const run_context& context) : context_(context) {}

    void setup(span_log* /*trace*/) override {
        // Input generation: op i runs corner (i mod 3) with framework seed
        // `seed + (i mod 12)`, so seed 2018 reproduces fig4_vmin_spec's
        // three chips in its first three ops.
        suite_ = &spec2006_suite();
        milc_ = &find_cpu_benchmark("milc");
        inputs_.clear();
        for (std::uint64_t slot = 0; slot < pool; ++slot) {
            inputs_.push_back(
                {make_chip(static_cast<process_corner>(slot % 3)),
                 context_.seed + slot});
        }
        // Reference digest of every input, so even the first op of each
        // input is checked against a characterization on other objects.
        references_.clear();
        for (std::uint64_t slot = 0; slot < pool; ++slot) {
            std::vector<double> vmins;
            const int robust = characterize(slot, 1, nullptr, slot, vmins);
            references_.push_back({key_of(1, slot), digest_of(robust, vmins)});
        }
    }

    [[nodiscard]] std::vector<keyed_digest> references() const override {
        return references_;
    }

    op_result run_op(std::uint64_t index, span_log* trace) override {
        const std::uint64_t slot = index % pool;
        std::vector<double> vmins;
        const int robust = characterize(slot, 1, trace, index, vmins);
        last_robust_ = robust;
        last_vmins_ = vmins;

        op_result result;
        result.key = key_of(1, slot);
        result.digest = digest_of(robust, vmins);
        const double worst = *std::max_element(vmins.begin(), vmins.end());

        // fig4_vmin_spec's checked-in content: the first three ops of seed
        // 2018 fold to its content.hash, with its worst Vmin per chip.
        if (context_.seed == fig4_seed && index < 3) {
            for (const double v : vmins) {
                fig4_.fold(static_cast<std::uint64_t>(std::llround(v * 10.0)));
            }
            constexpr double fig4_worst_mv[3] = {890.0, 900.0, 910.0};
            if (worst != fig4_worst_mv[index]) {
                result.error = "worst Vmin " + std::to_string(worst) +
                               " mV differs from fig4_vmin_spec";
            }
            if (index == 2 && fig4_.value() != fig4_content_hash) {
                result.error = "fig4 content.hash " +
                               std::to_string(fig4_.value()) + " != " +
                               std::to_string(fig4_content_hash);
            }
        }
        return result;
    }

    std::string replay(std::uint64_t index, span_log& trace) override {
        const auto& [config, framework_seed] = inputs_[index % pool];
        const chip_model chip(config, make_xgene2_pdn());
        const cpu_benchmark& bench = (*suite_)[index % suite_->size()];
        const std::uint64_t phase = hash_label(bench.name);

        execution_profile profile;
        {
            scoped_span s(&trace, "isa.execute",
                          static_cast<std::int64_t>(index));
            profile = pipeline_model(nominal_core_frequency)
                          .execute(bench.loop, 8192);
        }
        const core_assignment assignment{last_robust_, &profile,
                                         nominal_core_frequency};
        const std::span<const core_assignment> one(&assignment, 1);
        vmin_analysis analysis;
        {
            scoped_span s(&trace, "chip.analyze",
                          static_cast<std::int64_t>(index));
            analysis = chip.analyze(one, phase);
        }
        const std::vector<double> combined = chip.combined_trace(one, phase);
        const pdn_model global(chip.global_pdn(), nominal_pmd_voltage,
                               nominal_core_frequency);
        const pdn_model local(chip.pdn(), nominal_pmd_voltage,
                              nominal_core_frequency);
        double droop = 0.0;
        {
            scoped_span s(&trace, "pdn.worst_droop",
                          static_cast<std::int64_t>(index));
            droop += global.worst_droop(combined).value;
        }
        {
            scoped_span s(&trace, "pdn.worst_droop",
                          static_cast<std::int64_t>(index));
            droop += local.worst_droop(profile.current_trace).value;
        }
        constexpr std::uint64_t evaluations = 2000;
        double margin = 0.0;
        {
            scoped_span s(&trace, "chip.evaluate_at",
                          static_cast<std::int64_t>(index), evaluations);
            rng r(framework_seed);
            for (std::uint64_t k = 0; k < evaluations; ++k) {
                const millivolts v{nominal_pmd_voltage.value -
                                   5.0 * static_cast<double>(k % 40)};
                margin += chip.evaluate_at(analysis, v, r).margin.value;
            }
        }
        if (!(droop > 0.0) || !std::isfinite(margin) ||
            !(analysis.vmin.value > 0.0)) {
            return "layer replay produced no droop or Vmin";
        }

        // The same op at full engine width: the parallel slowdown of the
        // per-chunk thread spawn stays visible, and the result must match.
        std::vector<double> wide;
        int robust_wide = 0;
        {
            scoped_span s(&trace, "harness.vmin_suite_nproc",
                          static_cast<std::int64_t>(index));
            robust_wide = characterize(index % pool, context_.nproc, nullptr,
                                       index, wide);
        }
        if (robust_wide != last_robust_ || wide != last_vmins_) {
            return "vmin_suite differs between 1 and " +
                   std::to_string(context_.nproc) + " workers";
        }
        return {};
    }

private:
    static constexpr std::uint64_t pool = 12;
    static constexpr std::uint64_t fig4_seed = 2018;
    static constexpr std::uint64_t fig4_content_hash = 4857721278376709091ULL;

    static std::uint64_t digest_of(int robust,
                                   const std::vector<double>& vmins) {
        fnv1a digest;
        digest.fold(static_cast<std::uint64_t>(robust));
        for (const double v : vmins) {
            digest.fold(static_cast<std::uint64_t>(std::llround(v * 10.0)));
        }
        return digest.value();
    }

    int characterize(std::uint64_t slot, int workers, span_log* trace,
                     std::uint64_t index, std::vector<double>& vmins) const {
        const auto& [config, framework_seed] = inputs_[slot];
        const chip_model chip(config, make_xgene2_pdn());
        characterization_framework framework(chip, framework_seed);
        const auto op = static_cast<std::int64_t>(index);
        std::set<std::string> profiled;
        const auto vmin_of = [&](const kernel& program, int core,
                                 int repetitions) {
            // A cold profile_of is timed on its own; find_vmin then finds
            // the profile cached, so the op does the same work either way.
            if (trace != nullptr && profiled.insert(program.name).second) {
                scoped_span s(trace, "harness.profile_of", op);
                (void)framework.profile_of(program, nominal_core_frequency);
            }
            scoped_span s(trace, "harness.find_vmin", op);
            return framework
                .find_vmin(program, {core}, nominal_core_frequency,
                           repetitions, millivolts{5.0}, workers)
                .value;
        };

        int robust = 0;
        {
            scoped_span s(trace, "core.most_robust_core", op);
            double best = 0.0;
            for (int core = 0; core < cores_per_chip; ++core) {
                const double v = vmin_of(milc_->loop, core, 3);
                if (core == 0 || v < best) {
                    best = v;
                    robust = core;
                }
            }
        }
        {
            scoped_span s(trace, "core.characterize_suite", op);
            vmins.clear();
            for (const cpu_benchmark& bench : *suite_) {
                vmins.push_back(vmin_of(bench.loop, robust, 10));
            }
        }
        return robust;
    }

    run_context context_;
    const std::vector<cpu_benchmark>* suite_ = nullptr;
    const cpu_benchmark* milc_ = nullptr;
    std::vector<std::pair<chip_config, std::uint64_t>> inputs_;
    std::vector<keyed_digest> references_;
    int last_robust_ = 0;
    std::vector<double> last_vmins_;
    fnv1a fig4_;
};

// --- dram_retention -------------------------------------------------------

/// One run_dram_campaign over the default grid (50/60 C x {64, 2283} ms x 4
/// patterns) at one engine worker; traced runs repeat it at full width.
/// The testbed is restored to its built state before every op, so an op is
/// a pure function of its base_seed.
class dram_retention final : public workload {
public:
    explicit dram_retention(const run_context& context) : context_(context) {}

    void setup(span_log* trace) override {
        {
            scoped_span s(trace, "dram.build", -1);
            memory_ = std::make_unique<memory_system>(
                xgene2_memory_geometry(), retention_model{}, 2018,
                study_limits{celsius{61.0}, milliseconds{2283.0}});
        }
        testbed_ = std::make_unique<thermal_testbed>(
            memory_->geometry().dimms, thermal_plant_config{}, 7);
        const std::vector<std::int64_t> draws =
            distinct_draws(context_.seed, pool, 0, 1ULL << 40);
        base_seeds_.assign(draws.begin(), draws.end());
    }

    op_result run_op(std::uint64_t index, span_log* /*trace*/) override {
        const dram_campaign_result result = campaign(index, 1);
        op_result out;
        out.key = key_of(2, result.spec.base_seed);
        out.digest = digest_of(result);
        last_failed_cells_ = 0;
        for (const dram_run_record& r : result.records) {
            const dram_run_outcome expected =
                r.scan.failed_cells == 0 ? dram_run_outcome::clean
                : r.scan.fully_corrected() ? dram_run_outcome::contained
                                           : dram_run_outcome::uncorrectable;
            if (r.outcome != expected) {
                out.error = "record outcome disagrees with its scan";
            }
            last_failed_cells_ += r.scan.failed_cells;
        }
        if (result.records.size() != 16 || result.aborted_records() != 0) {
            out.error = "campaign did not complete its 16 setups";
        }
        last_digest_ = out.digest;
        return out;
    }

    std::string replay(std::uint64_t index, span_log& trace) override {
        const auto op = static_cast<std::int64_t>(index);
        ++traced_ops_;
        failed_cells_ += last_failed_cells_;
        std::string error;
        {
            scoped_span s(&trace, "harness.dram_campaign_nproc", op);
            const dram_campaign_result wide = campaign(index, context_.nproc);
            tasks_ += wide.stats.tasks;
            utilization_ += wide.stats.worker_utilization();
            if (digest_of(wide) != last_digest_) {
                error = "dram campaign differs between 1 and " +
                        std::to_string(context_.nproc) + " workers";
            }
        }
        thermal_testbed bed = *testbed_;
        bed.set_all_targets(celsius{50.0});
        {
            scoped_span s(&trace, "thermal.soak", op);
            bed.run(2400.0, 1.0, 900.0);
        }
        bed.apply_to(*memory_);
        scoped_span s(&trace, "dram.dpbench", op);
        const scan_result scan = memory_->run_dpbench(
            static_cast<data_pattern>(index % 4),
            static_cast<std::uint64_t>(base_seeds_[index % pool]),
            milliseconds{2283.0});
        return scan.scanned_bits > 0 ? error : "dpbench scanned nothing";
    }

    void layer_metrics(const span_log& /*trace*/,
                       metric_map& out) const override {
        const double ops = static_cast<double>(std::max<std::uint64_t>(
            traced_ops_, 1));
        out["dram.failed_cells_per_op"] = {
            static_cast<double>(failed_cells_) / ops, "count"};
        out["harness.engine_tasks_per_op.dram_retention"] = {
            static_cast<double>(tasks_) / ops, "count"};
        out["harness.engine_utilization.dram_retention"] = {
            utilization_ / ops, "ratio"};
    }

private:
    /// Scan cost varies with the base seed; a run cycles through enough of
    /// them that its median does not hinge on a few.
    static constexpr std::size_t pool = 32;

    [[nodiscard]] dram_campaign_result campaign(std::uint64_t index,
                                                int workers) {
        thermal_testbed bed = *testbed_;
        dram_campaign_spec spec;
        spec.base_seed = static_cast<std::uint64_t>(base_seeds_[index % pool]);
        spec.workers = workers;
        return run_dram_campaign(*memory_, bed, spec);
    }

    static std::uint64_t digest_of(const dram_campaign_result& result) {
        fnv1a digest;
        for (const dram_run_record& r : result.records) {
            digest.fold_double(r.temperature.value);
            digest.fold_double(r.refresh_period.value);
            digest.fold(static_cast<std::uint64_t>(r.pattern));
            digest.fold(r.scan.failed_cells);
            digest.fold(r.scan.affected_words);
            digest.fold(r.scan.ce_words);
            digest.fold(r.scan.ue_words);
            digest.fold(r.scan.sdc_words);
            digest.fold(static_cast<std::uint64_t>(r.outcome));
        }
        return digest.value();
    }

    run_context context_;
    std::unique_ptr<memory_system> memory_;
    std::unique_ptr<thermal_testbed> testbed_;
    std::vector<std::int64_t> base_seeds_;
    std::uint64_t last_digest_ = 0;
    std::uint64_t last_failed_cells_ = 0;
    std::uint64_t traced_ops_ = 0;
    std::uint64_t failed_cells_ = 0;
    std::uint64_t tasks_ = 0;
    double utilization_ = 0.0;
};

// --- fleet workloads ------------------------------------------------------

/// Digest of what a campaign served: the voltage-class histogram, the power
/// picture and every cohort's resolved probe.
std::uint64_t service_digest(const fleet::fleet_service& service) {
    fnv1a digest;
    for (const auto& [voltage, count] : service.bins()) {
        digest.fold(static_cast<std::uint64_t>(voltage));
        digest.fold(count);
    }
    digest.fold_double(service.power_nominal_w());
    digest.fold_double(service.power_binned_w());
    for (const fleet::cohort_state& c : service.cohorts()) {
        digest.fold(c.members);
        digest.fold(c.degraded ? 1 : 0);
        digest.fold_double(c.last.requirement_mv);
        digest.fold(static_cast<std::uint64_t>(c.last.bucket));
    }
    return digest.value();
}

/// The snapshot must render the bins the digest covers and no quarantine.
std::string check_snapshot(const fleet::fleet_service& service,
                           const std::string& snapshot) {
    std::ostringstream bins;
    bins << "\"bins\":[";
    bool first = true;
    for (const auto& [voltage, count] : service.bins()) {
        bins << (first ? "" : ",") << '[' << voltage << ',' << count << ']';
        first = false;
    }
    bins << ']';
    if (snapshot.find(bins.str()) == std::string::npos) {
        return "snapshot bins disagree with the service";
    }
    if (snapshot.find("\"degraded\":{\"cohorts\":0,") == std::string::npos) {
        return "snapshot reports degraded cohorts";
    }
    return {};
}

std::string check_outcome(const fleet::campaign_outcome& outcome, bool cold,
                          std::uint64_t cohorts) {
    if (outcome.degraded != 0) {
        return "campaign degraded cohorts";
    }
    if (outcome.probes != cohorts) {
        return "campaign did not request every cohort";
    }
    if (cold && (outcome.executed != cohorts || outcome.cache_hits != 0)) {
        return "cold campaign did not execute every cohort";
    }
    if (!cold && (outcome.executed != 0 || outcome.cache_hits != cohorts)) {
        return "warm campaign executed probes";
    }
    return {};
}

/// 10^6 nodes, quorum 1, no journal.  Setup characterizes a seeded set of
/// sweeps; each op re-runs one of them (every cohort hits the cache) and
/// renders the state snapshot, so only the cache-hit path and the node
/// fan-out run.
class fleet_warm final : public workload {
public:
    explicit fleet_warm(const run_context& context) : context_(context) {}

    void setup(span_log* trace) override {
        fleet::fleet_spec spec;
        spec.nodes = 1000000;
        spec.seed = context_.seed;
        fleet::fleet_service_config config;
        config.campaign = "perfbench_warm";
        config.workers = 1;
        metrics_ = std::make_unique<metrics_registry>();
        config.metrics = context_.traced ? metrics_.get() : nullptr;
        {
            scoped_span s(trace, "fleet.census", -1);
            service_ = std::make_unique<fleet::fleet_service>(
                spec, config, fleet::make_xgene2_probe(spec));
        }
        sweeps_ = distinct_draws(context_.seed, pool, -20, 60);
        references_.clear();
        for (const std::int64_t sweep : sweeps_) {
            const fleet::campaign_outcome outcome =
                service_->run_campaign(sweep);
            const std::string error =
                check_outcome(outcome, true, service_->cohorts().size());
            if (!error.empty()) {
                throw std::runtime_error("fleet_warm setup: " + error);
            }
            references_.push_back(
                {key_of(3, static_cast<std::uint64_t>(sweep)),
                 service_digest(*service_)});
        }
        setup_counters_ = metrics_->snapshot();
    }

    op_result run_op(std::uint64_t index, span_log* trace) override {
        const std::int64_t sweep = sweeps_[index % pool];
        const auto op = static_cast<std::int64_t>(index);
        fleet::campaign_outcome outcome;
        {
            scoped_span s(trace, "fleet.campaign_warm", op);
            outcome = service_->run_campaign(sweep);
        }
        std::string snapshot;
        {
            scoped_span s(trace, "fleet.snapshot", op);
            snapshot = service_->state_snapshot();
        }
        op_result result;
        result.key = key_of(3, static_cast<std::uint64_t>(sweep));
        result.digest = service_digest(*service_);
        result.error =
            check_outcome(outcome, false, service_->cohorts().size());
        if (result.error.empty()) {
            result.error = check_snapshot(*service_, snapshot);
        }
        return result;
    }

    std::string replay(std::uint64_t index, span_log& trace) override {
        const fleet::fleet_spec& spec = service_->spec();
        double sum = 0.0;
        {
            scoped_span s(&trace, "fleet.node_derive",
                          static_cast<std::int64_t>(index));
            for (std::uint64_t id = 0; id < spec.nodes; ++id) {
                const fleet::fleet_node node = fleet::make_node(spec, id);
                sum += fleet::bin_voltage_mv(
                    spec, 900.0 + fleet::node_jitter_mv(spec, node));
            }
        }
        return sum > 0.0 ? "" : "node derivation produced no bins";
    }

    [[nodiscard]] std::vector<keyed_digest> references() const override {
        return references_;
    }

    void layer_metrics(const span_log& /*trace*/,
                       metric_map& out) const override {
        // Counters through the service's public metrics sink, net of the
        // setup campaigns.
        const metrics_snapshot now = metrics_->snapshot();
        const auto delta = [&](const char* name) {
            return static_cast<double>(now.counter_value(name) -
                                       setup_counters_.counter_value(name));
        };
        const double hits = delta("fleet.cache_hits");
        const double executed = delta("fleet.probes_executed");
        out["fleet.cache_hit_ratio"] = {
            hits + executed > 0.0 ? hits / (hits + executed) : 0.0, "ratio"};
    }

private:
    static constexpr std::size_t pool = 6;

    run_context context_;
    std::unique_ptr<metrics_registry> metrics_;
    std::unique_ptr<fleet::fleet_service> service_;
    std::vector<std::int64_t> sweeps_;
    std::vector<keyed_digest> references_;
    metrics_snapshot setup_counters_;
};

/// The `fleet_service serve` shape (10^5 nodes) with quorum 3, journal and
/// state file in the private temp dir.  Each op characterizes a never-seen
/// sweep and publishes the state: every cohort probe runs three replicas,
/// is voted, journaled and fanned out.  One shard and one engine worker
/// instead of serve's four and nproc: every shard batch is an engine run
/// whose threads all wait for the slowest, so CPU time stolen from any one
/// core stretched the op; traced runs repeat each op on an nproc-worker
/// service instead.  Results are identical at any shard or worker count.
class fleet_cold final : public workload {
public:
    explicit fleet_cold(const run_context& context) : context_(context) {
        probes_ = std::make_shared<probe_probe>();
    }

    void setup(span_log* trace) override {
        // Every setup starts from an empty journal; a previous setup's
        // service is gone by now, so its files can go.
        dir_ = fs::path(context_.tmp_dir) / "fleet_cold";
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        spec_.nodes = 100000;
        spec_.seed = context_.seed;
        config_ = {};
        config_.campaign = "perfbench_cold";
        config_.workers = 1;
        config_.journal_path = (dir_ / "journal.log").string();
        config_.state_path = (dir_ / "state.json").string();
        config_.integrity.quorum = 3;
        metrics_ = std::make_unique<metrics_registry>();
        config_.metrics = context_.traced ? metrics_.get() : nullptr;

        const fleet::probe_fn inner = fleet::make_xgene2_probe(spec_);
        const std::shared_ptr<probe_probe> probes = probes_;
        const fleet::probe_fn wrapped =
            [inner, probes](const fleet::probe_request& request) {
                const std::int64_t start = now_ns();
                fleet::probe_result result = inner(request);
                const std::int64_t end = now_ns();
                if (span_log* log = probes->log.load()) {
                    log->add(probes->name.load(), start, end,
                             probes->parent.load(), probes->op.load());
                }
                return result;
            };
        {
            scoped_span s(trace, "fleet.census_cold", -1);
            service_ =
                std::make_unique<fleet::fleet_service>(spec_, config_, wrapped);
        }
        if (context_.traced) {
            fleet::fleet_service_config wide = config_;
            wide.workers = context_.nproc;
            wide.journal_path = (dir_ / "journal.wide.log").string();
            wide.state_path.clear();
            wide.metrics = nullptr;
            wide_ = std::make_unique<fleet::fleet_service>(spec_, wide, wrapped);
        }
        // One priming campaign below the op sweeps fills the probe bank's
        // profile caches, so the first op sees the same state as the rest.
        sweep_base_ = distinct_draws(context_.seed, 1, -40, 40).front();
        for (fleet::fleet_service* service : {service_.get(), wide_.get()}) {
            if (service == nullptr) {
                continue;
            }
            const std::string error =
                check_outcome(service->run_campaign(sweep_base_ - 1), true,
                              service->cohorts().size());
            if (!error.empty()) {
                throw std::runtime_error("fleet_cold setup: " + error);
            }
        }
        swept_.clear();
    }

    op_result run_op(std::uint64_t index, span_log* trace) override {
        const std::int64_t sweep = sweep_base_ + static_cast<std::int64_t>(index);
        const auto op = static_cast<std::int64_t>(index);
        const std::uintmax_t journal_before = fs::file_size(config_.journal_path);
        fleet::campaign_outcome outcome;
        if (trace != nullptr) {
            const traced_campaign t =
                run_traced(*service_, sweep, *trace, "fleet.campaign_cold",
                           "fleet.probe", op);
            outcome = t.outcome;
            ++traced_ops_;
            traced_probe_calls_ += t.probe_calls;
            campaign_self_ms_ +=
                static_cast<double>(t.wall_ns - t.probe_union_ns) / 1e6;
        } else {
            outcome = service_->run_campaign(sweep);
        }
        bool published = false;
        {
            scoped_span s(trace, "fleet.publish", op);
            published = service_->publish_state();
        }
        swept_.push_back(sweep);
        journal_bytes_ += fs::file_size(config_.journal_path) - journal_before;

        op_result result;
        result.key = key_of(4, static_cast<std::uint64_t>(sweep));
        result.digest = service_digest(*service_);
        result.error = check_outcome(outcome, true, service_->cohorts().size());
        if (result.error.empty() && !published) {
            result.error = "publish_state failed";
        }
        last_digest_ = result.digest;
        return result;
    }

    std::string replay(std::uint64_t index, span_log& trace) override {
        // The same campaign on the nproc-worker service: the engine's
        // parallel cost and idle share, and the same served bytes.
        const traced_campaign t =
            run_traced(*wide_, swept_.back(), trace, "fleet.campaign_cold_nproc",
                       "fleet.probe_nproc", static_cast<std::int64_t>(index));
        idle_share_ += 1.0 - static_cast<double>(t.probe_busy_ns) /
                                 (static_cast<double>(context_.nproc) *
                                  static_cast<double>(t.wall_ns));
        tasks_ += t.outcome.stats.tasks;
        utilization_ += t.outcome.stats.worker_utilization();
        if (service_digest(*wide_) != last_digest_) {
            return "fleet campaign differs between 1 and " +
                   std::to_string(context_.nproc) + " workers";
        }
        return check_outcome(t.outcome, true, wide_->cohorts().size());
    }

    std::vector<keyed_digest> verify(
        span_log* trace,
        std::vector<std::pair<std::uint64_t, std::string>>& errors) override {
        // Restart over the run's journal with no probe function: every
        // cohort of every swept campaign must come back from the journal,
        // and re-serving each sweep must reproduce the op's digest.
        fleet::fleet_service_config config = config_;
        config.state_path.clear();
        config.metrics = nullptr;
        std::unique_ptr<fleet::fleet_service> restarted;
        {
            scoped_span s(trace, "fleet.restart", -1);
            restarted = std::make_unique<fleet::fleet_service>(spec_, config);
        }
        restored_ = restarted->restored();
        const std::uint64_t cohorts = restarted->cohorts().size();
        const std::uint64_t last =
            swept_.empty() ? 0 : static_cast<std::uint64_t>(swept_.size() - 1);
        if (restored_ != cohorts * (swept_.size() + 1)) {
            errors.emplace_back(last, "restart restored " +
                                          std::to_string(restored_) +
                                          " journaled probes");
        }
        std::vector<keyed_digest> out;
        for (std::size_t i = 0; i < swept_.size(); ++i) {
            const std::string error =
                check_outcome(restarted->run_campaign(swept_[i]), false, cohorts);
            if (!error.empty()) {
                errors.emplace_back(i, "replay: " + error);
            }
            out.push_back({key_of(4, static_cast<std::uint64_t>(swept_[i])),
                           service_digest(*restarted)});
        }
        return out;
    }

    void layer_metrics(const span_log& /*trace*/,
                       metric_map& out) const override {
        const double ops =
            static_cast<double>(std::max<std::uint64_t>(traced_ops_, 1));
        out["fleet.probe_calls_per_op"] = {
            static_cast<double>(traced_probe_calls_) / ops, "count"};
        out["fleet.engine_idle_share"] = {idle_share_ / ops, "ratio"};
        out["fleet.campaign_self_ms"] = {campaign_self_ms_ / ops, "ms"};
        out["fleet.journal_bytes_per_op"] = {
            static_cast<double>(journal_bytes_) /
                static_cast<double>(std::max<std::size_t>(swept_.size(), 1)),
            "bytes"};
        out["fleet.restored"] = {static_cast<double>(restored_), "count"};
        out["harness.engine_tasks_per_op.fleet_cold"] = {
            static_cast<double>(tasks_) / ops, "count"};
        out["harness.engine_utilization.fleet_cold"] = {utilization_ / ops,
                                                        "ratio"};
    }

private:
    /// Shared with the probe wrapper running on engine workers.
    struct probe_probe {
        std::atomic<span_log*> log{nullptr};
        std::atomic<const char*> name{""};
        std::atomic<int> parent{-1};
        std::atomic<std::int64_t> op{-1};
    };

    struct traced_campaign {
        fleet::campaign_outcome outcome;
        std::int64_t wall_ns = 0;
        std::int64_t probe_busy_ns = 0;  ///< summed probe spans
        std::int64_t probe_union_ns = 0; ///< time any probe was running
        std::uint64_t probe_calls = 0;
    };

    traced_campaign run_traced(fleet::fleet_service& service,
                               std::int64_t sweep, span_log& trace,
                               const char* name, const char* probe_name,
                               std::int64_t op) {
        traced_campaign t;
        int id = -1;
        {
            scoped_span s(&trace, name, op);
            id = s.id();
            probes_->name = probe_name;
            probes_->parent = id;
            probes_->op = op;
            probes_->log = &trace;
            t.outcome = service.run_campaign(sweep);
            probes_->log = nullptr;
            t.wall_ns = now_ns() - trace.at(id).start_ns;
        }
        // Probe spans were appended after the campaign span opened.
        std::vector<std::pair<std::int64_t, std::int64_t>> busy;
        for (std::size_t i = static_cast<std::size_t>(id) + 1;
             i < trace.spans().size(); ++i) {
            const span& s = trace.spans()[i];
            if (s.parent == id) {
                busy.emplace_back(s.start_ns, s.end_ns);
                t.probe_busy_ns += s.end_ns - s.start_ns;
                ++t.probe_calls;
            }
        }
        t.probe_union_ns = union_ns(std::move(busy));
        return t;
    }

    run_context context_;
    std::shared_ptr<probe_probe> probes_;
    fs::path dir_;
    fleet::fleet_spec spec_;
    fleet::fleet_service_config config_;
    std::unique_ptr<metrics_registry> metrics_;
    std::unique_ptr<fleet::fleet_service> service_;
    std::unique_ptr<fleet::fleet_service> wide_; ///< traced runs only
    std::int64_t sweep_base_ = 0;
    std::vector<std::int64_t> swept_;
    std::uint64_t last_digest_ = 0;
    std::uintmax_t journal_bytes_ = 0;
    std::uint64_t restored_ = 0;
    std::uint64_t traced_ops_ = 0;
    std::uint64_t traced_probe_calls_ = 0;
    double campaign_self_ms_ = 0.0;
    double idle_share_ = 0.0;
    std::uint64_t tasks_ = 0;
    double utilization_ = 0.0;
};

} // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names{
        "vmin_suite", "dram_retention", "fleet_warm", "fleet_cold"};
    return names;
}

std::unique_ptr<workload> make_workload(const std::string& name,
                                        const run_context& context) {
    if (name == "vmin_suite") {
        return std::make_unique<vmin_suite>(context);
    }
    if (name == "dram_retention") {
        return std::make_unique<dram_retention>(context);
    }
    if (name == "fleet_warm") {
        return std::make_unique<fleet_warm>(context);
    }
    if (name == "fleet_cold") {
        return std::make_unique<fleet_cold>(context);
    }
    return nullptr;
}

int setup_repetitions(const std::string& name) {
    return name == "fleet_warm" || name == "fleet_cold" ? 3 : 5;
}

} // namespace perfbench
