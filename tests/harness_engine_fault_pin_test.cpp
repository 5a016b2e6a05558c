// Byte pins for the execution engine's rig-fault path.  CPU and DRAM
// campaigns run under make_uniform_fault_plan at rates 0.3 and 1.0 with
// engine retry budgets of 1, 2 and 3 attempts, at 1, 2 and 8 workers, plus
// a journal-resume case of each.  Every run folds its records CSV, trace
// JSON, metrics JSON, timeline JSON (CPU only: the DRAM runner has no
// timeline sink), final status file and execution_stats fault fields into
// one FNV-1a digest.  The expected digests were produced by an engine
// that walked each task's attempts inside its worker, so the serial fault
// pre-pass must match it in fault accounting, span placement, counter
// totals, decile samples and downtime rounding.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dram/memory_system.hpp"
#include "dram/topology.hpp"
#include "harness/campaign.hpp"
#include "harness/dram_campaign.hpp"
#include "harness/execution_engine.hpp"
#include "harness/fault_injection.hpp"
#include "harness/framework.hpp"
#include "harness/journal.hpp"
#include "harness/timeseries/timeseries.hpp"
#include "harness/trace/metrics.hpp"
#include "harness/trace/trace.hpp"
#include "thermal/testbed.hpp"
#include "util/wire.hpp"
#include "workloads/cpu_profiles.hpp"

namespace gb {
namespace {

/// Observability sinks of one campaign run plus its status file path.
struct sinks {
    tracer trace;
    metrics_registry metrics;
    timeline_recorder timeline;
    std::string status_path;

    explicit sinks(const std::string& tag)
        : status_path(::testing::TempDir() + "engine_fault_pin_" + tag +
                      ".status.json") {
        std::remove(status_path.c_str());
    }
};

/// Accumulates labelled artifacts into one FNV-1a digest.
class digest {
public:
    void fold(std::string_view label, std::string_view bytes) {
        hash_ = fnv1a_bytes(hash_, label);
        hash_ = fnv1a_word(hash_, bytes.size());
        hash_ = fnv1a_bytes(hash_, bytes);
    }

    void fold_sinks(const sinks& s, bool with_timeline) {
        std::ostringstream trace_out;
        write_chrome_trace(trace_out, s.trace);
        fold("trace", trace_out.str());
        std::ostringstream metrics_out;
        write_metrics_json(metrics_out, s.metrics);
        fold("metrics", metrics_out.str());
        if (with_timeline) {
            std::ostringstream timeline_out;
            write_timeline_json(timeline_out, s.timeline);
            fold("timeline", timeline_out.str());
        }
        std::ifstream in(s.status_path, std::ios::binary);
        EXPECT_TRUE(in.good()) << "no status file at " << s.status_path;
        std::ostringstream status;
        status << in.rdbuf();
        fold("status", status.str());
    }

    void fold_stats(const execution_stats& stats) {
        std::string fields = "tasks=" + std::to_string(stats.tasks);
        fields += " retries=" + std::to_string(stats.retries);
        fields += " aborted=" + std::to_string(stats.aborted_rig);
        fields += " wdt=" + std::to_string(stats.watchdog_timeouts);
        fields += " crash=" + std::to_string(stats.board_crashes);
        fields += " pwr=" + std::to_string(stats.power_switch_failures);
        fields += " corrupt=" + std::to_string(stats.corrupted_log_lines);
        fields += " replayed=" + std::to_string(stats.replayed_tasks);
        fields += " down=" + format_double(stats.rig_downtime_s);
        fields += " hist=";
        for (const std::uint64_t n : stats.outcome_histogram) {
            fields += std::to_string(n) + "/";
        }
        fold("stats", fields);
    }

    [[nodiscard]] std::string hex() const { return format_hex(hash_); }

private:
    std::uint64_t hash_ = fnv1a_basis;
};

campaign_spec cpu_spec(int workers) {
    campaign_spec spec;
    spec.benchmark = "milc";
    spec.repetitions = 5;
    spec.workers = workers;
    for (const double v : {980.0, 920.0, 880.0, 860.0}) {
        characterization_setup setup;
        setup.voltage = millivolts{v};
        setup.cores = {6};
        spec.setups.push_back(setup);
    }
    return spec;
}

dram_campaign_spec dram_spec(int workers) {
    dram_campaign_spec spec;
    spec.temperatures = {celsius{50.0}, celsius{60.0}};
    spec.refresh_periods = {milliseconds{64.0}, milliseconds{2283.0}};
    spec.repetitions = 2;
    spec.workers = workers;
    return spec;
}

const study_limits dram_limits{celsius{62.0}, milliseconds{2283.0}};

campaign_io cpu_io(sinks& s, const fault_plan& faults, int budget) {
    campaign_io io;
    io.faults = &faults;
    io.retry_budget = budget;
    io.trace = &s.trace;
    io.metrics = &s.metrics;
    io.timeline = &s.timeline;
    io.status_path = s.status_path;
    return io;
}

dram_campaign_io dram_io(sinks& s, const fault_plan& faults, int budget) {
    dram_campaign_io io;
    io.faults = &faults;
    io.retry_budget = budget;
    io.trace = &s.trace;
    io.metrics = &s.metrics;
    io.status_path = s.status_path;
    return io;
}

std::string cpu_digest(const std::string& tag, double rate, int budget,
                       int workers) {
    const chip_model ttt(make_ttt_chip(), make_xgene2_pdn());
    characterization_framework framework(ttt, 2018);
    const fault_plan faults = make_uniform_fault_plan(2018, rate);
    sinks s(tag);
    const campaign_result result =
        framework.run_campaign(cpu_spec(workers),
                               find_cpu_benchmark("milc").loop,
                               cpu_io(s, faults, budget));
    digest d;
    std::ostringstream csv;
    write_campaign_csv(csv, result);
    d.fold("records", csv.str());
    d.fold_sinks(s, /*with_timeline=*/true);
    d.fold_stats(result.stats);
    return d.hex();
}

std::string dram_digest(const std::string& tag, double rate, int budget,
                        int workers) {
    memory_system memory(single_dimm_geometry(), retention_model{}, 2018,
                         dram_limits);
    thermal_testbed testbed(1, thermal_plant_config{}, 7);
    const fault_plan faults = make_uniform_fault_plan(2018, rate);
    sinks s(tag);
    const dram_campaign_result result = run_dram_campaign(
        memory, testbed, dram_spec(workers), dram_io(s, faults, budget));
    digest d;
    std::ostringstream csv;
    write_dram_campaign_csv(csv, result);
    d.fold("records", csv.str());
    d.fold_sinks(s, /*with_timeline=*/false);
    d.fold_stats(result.stats);
    return d.hex();
}

/// First `lines` journal lines (a kill at a line boundary).
std::string truncate_lines(const std::string& journal, std::size_t lines) {
    std::size_t pos = 0;
    for (std::size_t i = 0; i < lines; ++i) {
        pos = journal.find('\n', pos);
        if (pos == std::string::npos) {
            return journal;
        }
        ++pos;
    }
    return journal.substr(0, pos);
}

struct pin_case {
    double rate;
    int budget;
    const char* expected;
};

TEST(EngineFaultPinTest, CpuCampaignBytesArePinned) {
    const std::vector<pin_case> cases = {
        {0.3, 1, "160a933a3e3ab927"}, {0.3, 2, "0beeba3c22017279"},
        {0.3, 3, "46fa8764f98a7cbb"}, {1.0, 1, "266baad2d60e6f51"},
        {1.0, 2, "45a24e3b4de3b6f4"}, {1.0, 3, "f71162bb275836c2"},
    };
    for (const pin_case& c : cases) {
        for (const int workers : {1, 2, 8}) {
            const std::string tag = "cpu_" + std::to_string(c.budget) +
                                    "_" + std::to_string(workers);
            EXPECT_EQ(cpu_digest(tag, c.rate, c.budget, workers), c.expected)
                << "rate " << c.rate << ", budget " << c.budget << ", "
                << workers << " workers";
        }
    }
}

TEST(EngineFaultPinTest, DramCampaignBytesArePinned) {
    const std::vector<pin_case> cases = {
        {0.3, 1, "8ab80d3bd9af80d9"}, {0.3, 2, "9ba4817a29eef128"},
        {0.3, 3, "0ccf2d7ab497f97d"}, {1.0, 1, "56c18674e49f5cb4"},
        {1.0, 2, "06f1537a8b33bde5"}, {1.0, 3, "e44c5061eeb111b2"},
    };
    for (const pin_case& c : cases) {
        for (const int workers : {1, 2, 8}) {
            const std::string tag = "dram_" + std::to_string(c.budget) +
                                    "_" + std::to_string(workers);
            EXPECT_EQ(dram_digest(tag, c.rate, c.budget, workers),
                      c.expected)
                << "rate " << c.rate << ", budget " << c.budget << ", "
                << workers << " workers";
        }
    }
}

// A faulty journaled run killed after a third of its records, resumed
// under the same plan: replayed slots skip fault injection, the rest draw
// exactly where the uninterrupted run did.
TEST(EngineFaultPinTest, ResumedCampaignBytesArePinned) {
    const fault_plan faults = make_uniform_fault_plan(2018, 0.3);
    const kernel& loop = find_cpu_benchmark("milc").loop;
    const chip_model ttt(make_ttt_chip(), make_xgene2_pdn());
    std::ostringstream cpu_sink;
    {
        characterization_framework framework(ttt, 2018);
        campaign_journal journal(cpu_sink);
        campaign_io io;
        io.faults = &faults;
        io.journal = &journal;
        io.retry_budget = 2;
        (void)framework.run_campaign(cpu_spec(1), loop, io);
    }
    std::ostringstream dram_sink;
    {
        memory_system memory(single_dimm_geometry(), retention_model{},
                             2018, dram_limits);
        thermal_testbed testbed(1, thermal_plant_config{}, 7);
        campaign_journal journal(dram_sink);
        dram_campaign_io io;
        io.faults = &faults;
        io.journal = &journal;
        io.retry_budget = 2;
        (void)run_dram_campaign(memory, testbed, dram_spec(1), io);
    }
    for (const int workers : {1, 2, 8}) {
        const std::string tag = "resume_" + std::to_string(workers);
        characterization_framework framework(ttt, 2018);
        sinks cpu_sinks(tag + "_cpu");
        std::istringstream cpu_in(truncate_lines(cpu_sink.str(), 7));
        const campaign_result cpu = framework.resume_campaign(
            cpu_spec(workers), loop, cpu_in, cpu_io(cpu_sinks, faults, 2));
        digest d;
        std::ostringstream cpu_csv;
        write_campaign_csv(cpu_csv, cpu);
        d.fold("cpu_records", cpu_csv.str());
        d.fold_sinks(cpu_sinks, /*with_timeline=*/true);
        d.fold_stats(cpu.stats);

        memory_system memory(single_dimm_geometry(), retention_model{},
                             2018, dram_limits);
        thermal_testbed testbed(1, thermal_plant_config{}, 7);
        sinks dram_sinks(tag + "_dram");
        std::istringstream dram_in(truncate_lines(dram_sink.str(), 5));
        const dram_campaign_result dram = resume_dram_campaign(
            memory, testbed, dram_spec(workers), dram_in,
            dram_io(dram_sinks, faults, 2));
        std::ostringstream dram_csv;
        write_dram_campaign_csv(dram_csv, dram);
        d.fold("dram_records", dram_csv.str());
        d.fold_sinks(dram_sinks, /*with_timeline=*/false);
        d.fold_stats(dram.stats);

        EXPECT_GT(cpu.stats.replayed_tasks, 0u);
        EXPECT_GT(cpu.stats.injected_faults(), 0u);
        EXPECT_EQ(d.hex(), "a2e27f669bc186cd") << workers << " workers";
    }
}

} // namespace
} // namespace gb
