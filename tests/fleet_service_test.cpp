// Fleet-service determinism tests: the refactor's core acceptance
// criteria.  A 10^5-node fleet characterized through the service must
// produce bitwise-identical state snapshots and journals at any engine
// worker count; cache hit/miss counters are exact
// (lookups happen serially in sorted cohort order); a restarted service
// warms its cache from the journal and re-executes nothing; and the
// journal wire format round-trips through the exposed parser.
#include "fleet/service.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/fleet.hpp"
#include "harness/execution_engine.hpp"
#include "harness/fault_injection.hpp"
#include "harness/journal.hpp"
#include "harness/report/artifacts.hpp"
#include "harness/report/json.hpp"
#include "harness/status.hpp"
#include "harness/timeseries/alerts.hpp"
#include "harness/timeseries/timeseries.hpp"
#include "harness/trace/metrics.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace gb::fleet {
namespace {

/// A fresh temp path: whatever an earlier run left there (possibly in an
/// older journal format) is removed, so every test starts cold.
std::string temp_path(const std::string& name) {
    const std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

// A cheap stand-in for the X-Gene2 probe: a pure function of the request,
// like any real probe must be.  Depends on content, seed and sweep so the
// tests notice if either stops being derived deterministically.
probe_result fake_probe(const probe_request& request) {
    probe_result result;
    result.requirement_mv = 850.0 +
                            static_cast<double>(request.content % 97) +
                            static_cast<double>(request.sweep_mv) / 2.0;
    result.power_nominal_w = 30.0 + static_cast<double>(request.seed % 13);
    result.power_point_w = result.power_nominal_w * 0.8;
    result.bucket = static_cast<int>(request.cohort.corner);
    return result;
}

fleet_spec mega_fleet() {
    fleet_spec spec;
    spec.nodes = 100000; // 10^5 nodes, 3 corners x 3 classes x 4 points
    return spec;
}

// --- fleet topology -----------------------------------------------------

TEST(FleetTest, NodesAreAPureFunctionOfSpecAndId) {
    const fleet_spec spec = mega_fleet();
    for (std::uint64_t id : {0ULL, 1ULL, 77777ULL, 99999ULL}) {
        const fleet_node a = make_node(spec, id);
        const fleet_node b = make_node(spec, id);
        EXPECT_EQ(a.id, id);
        EXPECT_EQ(a.cohort, b.cohort);
        EXPECT_EQ(a.seed, b.seed);
        EXPECT_LT(a.cohort.workload_class, spec.workload_classes);
        EXPECT_LT(a.cohort.operating_point, spec.operating_points);
        EXPECT_EQ(a.cohort.variant, 0U);
        const double jitter = node_jitter_mv(spec, a);
        EXPECT_GE(jitter, 0.0);
        EXPECT_LT(jitter, spec.node_jitter_mv);
    }
}

TEST(FleetTest, NodeDerivationMatchesTheTaskSeedDefinition) {
    // A generated node is two derive_task_seed words: the axis word from
    // the spec seed (corner, class and operating point in independent
    // byte lanes) and the jitter seed from a domain-offset seed.
    for (const auto& [classes, points] :
         std::vector<std::pair<int, int>>{{3, 4}, {1, 1}, {5, 7}, {64, 64},
                                          {65536, 2}}) {
        fleet_spec spec;
        spec.seed = 2018 + static_cast<std::uint64_t>(classes);
        spec.workload_classes = classes;
        spec.operating_points = points;
        for (std::uint64_t id = 0; id < 2000; ++id) {
            const std::uint64_t word = derive_task_seed(spec.seed, id);
            const fleet_node node = make_node(spec, id);
            EXPECT_EQ(node.id, id);
            EXPECT_EQ(node.cohort.corner,
                      static_cast<process_corner>(word % 3));
            EXPECT_EQ(node.cohort.workload_class,
                      (word >> 8) % static_cast<std::uint64_t>(classes));
            EXPECT_EQ(node.cohort.operating_point,
                      (word >> 24) % static_cast<std::uint64_t>(points));
            EXPECT_EQ(node.cohort.variant, 0U);
            EXPECT_EQ(node.seed,
                      derive_task_seed(spec.seed + 0x517cc1b727220a95ULL,
                                       id));
        }
    }
    fleet_spec too_wide;
    too_wide.workload_classes = 65537;
    EXPECT_THROW((void)make_node(too_wide, 0), contract_violation);
}

TEST(FleetTest, BinningCeilsToTheStepAndCaps) {
    fleet_spec spec;
    spec.bin_step_mv = 10.0;
    spec.bin_cap_mv = 980.0;
    EXPECT_DOUBLE_EQ(bin_voltage_mv(spec, 901.0), 910.0);
    EXPECT_DOUBLE_EQ(bin_voltage_mv(spec, 910.0), 910.0);
    EXPECT_DOUBLE_EQ(bin_voltage_mv(spec, 975.1), 980.0);
    EXPECT_DOUBLE_EQ(bin_voltage_mv(spec, 1200.0), 980.0);
}

TEST(FleetTest, ProbeContentSeparatesEveryKeyField) {
    const cohort_key base{process_corner::ttt, 0, 0, 0};
    const std::uint64_t content = probe_content(base, 0);
    EXPECT_EQ(content, probe_content(base, 0));
    cohort_key other = base;
    other.corner = process_corner::tff;
    EXPECT_NE(probe_content(other, 0), content);
    other = base;
    other.workload_class = 1;
    EXPECT_NE(probe_content(other, 0), content);
    other = base;
    other.operating_point = 1;
    EXPECT_NE(probe_content(other, 0), content);
    other = base;
    other.variant = 1;
    EXPECT_NE(probe_content(other, 0), content);
    EXPECT_NE(probe_content(base, -5), content);
}

// --- node fan-out ------------------------------------------------------

/// The fan-out written the obvious way: one make_node per node, its cohort
/// found by key, one bin map update and one histogram observe per node,
/// power summed in node-id order.
struct reference_fan_out {
    std::map<std::int64_t, std::uint64_t> bins;
    double power_nominal_w = 0.0;
    double power_binned_w = 0.0;
    metrics_registry metrics{1};
};

void run_reference(const fleet_service& service, double aging_mv_per_epoch,
                   const std::vector<std::uint64_t>& bin_bounds,
                   reference_fan_out& out) {
    const fleet_spec& spec = service.spec();
    std::map<cohort_key, const cohort_state*> by_key;
    for (const cohort_state& cohort : service.cohorts()) {
        by_key.emplace(cohort.key, &cohort);
    }
    const histogram_handle bin_mv =
        out.metrics.histogram("fleet.bin_mv", bin_bounds);
    for (std::uint64_t id = 0; id < service.node_count(); ++id) {
        const fleet_node node = make_node(spec, id);
        const cohort_state& cohort = *by_key.at(node.cohort);
        if (cohort.degraded) {
            const auto cap = static_cast<std::int64_t>(spec.bin_cap_mv);
            ++out.bins[cap];
            out.metrics.observe(0, bin_mv, static_cast<std::uint64_t>(cap));
            continue;
        }
        double served_mv = cohort.last.requirement_mv;
        if (aging_mv_per_epoch != 0.0) {
            served_mv += aging_mv_per_epoch *
                         static_cast<double>(service.epoch() - 1);
        }
        const std::int64_t bin = std::llround(
            bin_voltage_mv(spec, served_mv + node_jitter_mv(spec, node)));
        ++out.bins[bin];
        out.metrics.observe(0, bin_mv, static_cast<std::uint64_t>(bin));
        out.power_nominal_w += cohort.last.power_nominal_w;
        out.power_binned_w += cohort.last.power_point_w;
    }
}

/// Three campaigns (cold, a new sweep, a warm revisit); after each the
/// service's bins, power sums (bitwise) and bin histogram must equal the
/// per-node reference's.
void expect_fan_out_matches_reference(const fleet_spec& spec,
                                      fleet_service_config config) {
    metrics_registry metrics;
    config.metrics = &metrics;
    fleet_service service(spec, config, fake_probe);
    reference_fan_out reference;
    for (const std::int64_t sweep : {0, -20, 0}) {
        (void)service.run_campaign(sweep);
        const metrics_snapshot served = metrics.snapshot();
        const histogram_snapshot* histogram =
            served.histogram_named("fleet.bin_mv");
        ASSERT_NE(histogram, nullptr);
        reference.bins.clear();
        reference.power_nominal_w = 0.0;
        reference.power_binned_w = 0.0;
        run_reference(service, config.aging_mv_per_epoch, histogram->bounds,
                      reference);
        EXPECT_EQ(service.bins(), reference.bins) << "sweep " << sweep;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(service.power_nominal_w()),
                  std::bit_cast<std::uint64_t>(reference.power_nominal_w));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(service.power_binned_w()),
                  std::bit_cast<std::uint64_t>(reference.power_binned_w));
        const metrics_snapshot expected = reference.metrics.snapshot();
        const histogram_snapshot* want =
            expected.histogram_named("fleet.bin_mv");
        ASSERT_NE(want, nullptr);
        EXPECT_EQ(histogram->counts, want->counts);
        EXPECT_EQ(histogram->count, want->count);
        EXPECT_EQ(histogram->sum, want->sum);
    }
}

TEST(FleetFanOutTest, MatchesThePerNodeReferenceExactly) {
    std::uint64_t draw = 0x5eed;
    const std::uint64_t drawn_seed = splitmix64(draw);
    for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{2018},
                                     drawn_seed}) {
        for (const double jitter : {0.0, 12.0}) {
            fleet_spec spec;
            spec.nodes = 20000;
            spec.seed = seed;
            spec.node_jitter_mv = jitter;
            SCOPED_TRACE("seed " + std::to_string(seed) + " jitter " +
                         std::to_string(jitter));
            expect_fan_out_matches_reference(spec, {});

            fleet_spec coarse = spec; // non-integer step, clamping cap
            coarse.bin_step_mv = 7.5;
            coarse.bin_cap_mv = 900.0;
            fleet_service_config aging;
            aging.aging_mv_per_epoch = 1.75;
            expect_fan_out_matches_reference(coarse, aging);

            fleet_spec wide = spec;
            wide.workload_classes = 5;
            wide.operating_points = 7;
            expect_fan_out_matches_reference(wide, aging);
        }
    }
}

TEST(FleetFanOutTest, DegradedCohortsAndExplicitNodesMatchTheReference) {
    // Exhausted probes quarantine part of the fleet: those nodes count
    // straight into the cap class and add no power.
    const fault_plan faults = make_uniform_fault_plan(5, 0.85);
    fleet_service_config degraded;
    degraded.faults = &faults;
    degraded.retry_budget = 0;
    degraded.replan_rounds = 0;
    fleet_spec spec;
    spec.nodes = 20000;
    spec.workload_classes = 5;
    spec.operating_points = 7;
    spec.bin_cap_mv = 960.5; // degraded nodes land on the truncated cap
    {
        fleet_service probe_once(spec, degraded, fake_probe);
        const campaign_outcome outcome = probe_once.run_campaign(0);
        ASSERT_GT(outcome.degraded, 0U);
        ASSERT_LT(outcome.degraded, probe_once.cohorts().size());
    }
    expect_fan_out_matches_reference(spec, degraded);

    // Unique-chip fleet: every node its own variant, listed explicitly.
    fleet_spec unique;
    for (std::uint64_t id = 0; id < 3000; ++id) {
        fleet_node node = make_node(spec, id);
        node.cohort.variant = static_cast<std::uint32_t>(id % 1000 + 1);
        unique.explicit_nodes.push_back(node);
    }
    fleet_service_config aging;
    aging.aging_mv_per_epoch = -0.5;
    expect_fan_out_matches_reference(unique, aging);
    expect_fan_out_matches_reference(unique, degraded);
}

TEST(FleetFanOutTest, NonFiniteBinningSpecsAreRejected) {
    // A NaN jitter used to bin every node at the cap without a word.
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
        for (double fleet_spec::*field :
             {&fleet_spec::node_jitter_mv, &fleet_spec::bin_step_mv,
              &fleet_spec::bin_cap_mv}) {
            fleet_spec spec;
            spec.nodes = 100;
            spec.*field = bad;
            EXPECT_THROW(fleet_service(spec, {}, fake_probe),
                         contract_violation);
        }
    }
}

// --- cache counters are exact -------------------------------------------

TEST(FleetServiceTest, CacheCountersAreExact) {
    fleet_service service(mega_fleet(), fleet_service_config{}, fake_probe);
    ASSERT_EQ(service.cohorts().size(), 36U); // 3 corners x 3 x 4

    // Epoch 1: every cohort misses and executes.
    const campaign_outcome first = service.run_campaign(0);
    EXPECT_EQ(first.probes, 36U);
    EXPECT_EQ(first.cache_hits, 0U);
    EXPECT_EQ(first.executed, 36U);

    // Epoch 2 at a new sweep: new content, all miss again.
    const campaign_outcome second = service.run_campaign(-5);
    EXPECT_EQ(second.cache_hits, 0U);
    EXPECT_EQ(second.executed, 36U);

    // Epoch 3 revisits the first sweep: all 36 served from the cache.
    const campaign_outcome third = service.run_campaign(0);
    EXPECT_EQ(third.probes, 36U);
    EXPECT_EQ(third.cache_hits, 36U);
    EXPECT_EQ(third.executed, 0U);

    EXPECT_EQ(service.cache().hits(), 36U);
    EXPECT_EQ(service.cache().misses(), 72U);
    EXPECT_EQ(service.cache().size(), 72U);
    EXPECT_EQ(service.epoch(), 3U);
    EXPECT_EQ(service.node_count(), 100000U);
}

// --- the determinism matrix ---------------------------------------------

struct service_run {
    std::string snapshot;
    std::string journal;
};

service_run run_matrix_cell(int workers, const std::string& journal_path) {
    fleet_service_config config;
    config.workers = workers;
    config.journal_path = journal_path;
    fleet_service service(mega_fleet(), config, fake_probe);
    service.run_campaign(0);
    service.run_campaign(-5);
    service.run_campaign(0); // pure cache epoch: hits must count equally
    return {service.state_snapshot(), slurp(journal_path)};
}

TEST(FleetServiceTest, SnapshotAndJournalAreInvariantUnderWorkersAndShards) {
    // The acceptance matrix: engine workers 1/2/8 over a 10^5-node fleet.
    // Every cell must produce the same snapshot bytes and the same journal
    // bytes -- probe seeds derive from content, not task indices.
    const service_run reference =
        run_matrix_cell(1, temp_path("fleet_w1.journal"));
    ASSERT_FALSE(reference.snapshot.empty());
    ASSERT_FALSE(reference.journal.empty());
    EXPECT_EQ(reference.journal.back(), '\n');

    for (const int workers : {2, 8}) {
        const service_run cell = run_matrix_cell(
            workers,
            temp_path("fleet_w" + std::to_string(workers) + ".journal"));
        EXPECT_EQ(cell.snapshot, reference.snapshot)
            << "snapshot diverged at workers=" << workers;
        EXPECT_EQ(cell.journal, reference.journal)
            << "journal diverged at workers=" << workers;
    }
}

TEST(FleetServiceTest, SnapshotParsesAsAStatusHeartbeat) {
    // The fleet snapshot is a --status document with a fleet object; the
    // one status reader reads it back whole.
    fleet_service_config config;
    config.campaign = "fleet_test";
    fleet_service service(mega_fleet(), config, fake_probe);
    service.run_campaign(0);
    const std::string snapshot = service.state_snapshot();
    EXPECT_NE(snapshot.find("\"fleet\":{"), std::string::npos);

    std::string error;
    const auto parsed = read_status_json(snapshot, error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->campaign, "fleet_test");
    EXPECT_FALSE(parsed->running);
    EXPECT_EQ(parsed->tasks_total, 36U);
    EXPECT_EQ(parsed->tasks_done, 36U);
    ASSERT_TRUE(parsed->fleet.has_value());
    EXPECT_EQ(parsed->fleet->epoch, 1U);
    EXPECT_EQ(parsed->fleet->cohorts, 36U);
    EXPECT_EQ(parsed->fleet->nodes, service.node_count());
    EXPECT_EQ(parsed->fleet->cohorts_top.size(), 36U);
    EXPECT_FALSE(parsed->fleet->timeline.has_value());
    EXPECT_EQ(write_status_json(*parsed), snapshot);
}

TEST(FleetServiceTest, PublishedStateMatchesTheSnapshotBytes) {
    fleet_service_config config;
    config.state_path = temp_path("fleet_state.json");
    fleet_service service(mega_fleet(), config, fake_probe);
    service.run_campaign(0);
    ASSERT_TRUE(service.publish_state());
    EXPECT_EQ(slurp(config.state_path), service.state_snapshot());
    std::ifstream temp(config.state_path + ".tmp");
    EXPECT_FALSE(temp.good());
}

// --- warm restart from the journal --------------------------------------

TEST(FleetServiceTest, RestartWarmsTheCacheAndReExecutesNothing) {
    const std::string journal_path = temp_path("fleet_restart.journal");
    std::string snapshot_before;
    {
        fleet_service_config config;
        config.journal_path = journal_path;
        fleet_service service(mega_fleet(), config, fake_probe);
        service.run_campaign(0);
        service.run_campaign(-5);
        snapshot_before = service.state_snapshot();
    }
    const std::string journal_before = slurp(journal_path);

    // The restarted daemon carries no probe function at all: everything
    // must come from the journal.
    fleet_service_config config;
    config.journal_path = journal_path;
    fleet_service restarted(mega_fleet(), config);
    EXPECT_EQ(restarted.restored(), 72U);
    EXPECT_EQ(restarted.cache().size(), 72U);

    const campaign_outcome replay = restarted.run_campaign(0);
    EXPECT_EQ(replay.cache_hits, 36U);
    EXPECT_EQ(replay.executed, 0U);
    const campaign_outcome replay_sweep = restarted.run_campaign(-5);
    EXPECT_EQ(replay_sweep.cache_hits, 36U);
    EXPECT_EQ(replay_sweep.executed, 0U);

    // Nothing executed, so nothing was appended: the journal is stable
    // under replay.
    EXPECT_EQ(slurp(journal_path), journal_before);

    // The restored fleet state (bins, power, cohorts) matches the
    // original service after the same campaign sequence, except for the
    // restoration counter itself.
    std::string error;
    const auto before = read_status_json(snapshot_before, error);
    ASSERT_TRUE(before.has_value()) << error;
    const auto after = read_status_json(restarted.state_snapshot(), error);
    ASSERT_TRUE(after.has_value()) << error;
    EXPECT_EQ(after->tasks_total, before->tasks_total);
    EXPECT_EQ(after->tasks_done, before->tasks_done);
}

TEST(FleetServiceTest, RestartedFleetStateMatchesAfterReplay) {
    const std::string journal_path = temp_path("fleet_replay_state.journal");
    std::string bins_before;
    {
        fleet_service_config config;
        config.journal_path = journal_path;
        fleet_service service(mega_fleet(), config, fake_probe);
        service.run_campaign(0);
        std::ostringstream bins;
        for (const auto& [mv, count] : service.bins()) {
            bins << mv << ':' << count << ' ';
        }
        bins_before = bins.str();
    }
    fleet_service_config config;
    config.journal_path = journal_path;
    fleet_service restarted(mega_fleet(), config);
    restarted.run_campaign(0);
    std::ostringstream bins;
    for (const auto& [mv, count] : restarted.bins()) {
        bins << mv << ':' << count << ' ';
    }
    EXPECT_EQ(bins.str(), bins_before);
}

// --- journal wire format ------------------------------------------------

TEST(FleetServiceTest, JournalLinesRoundTripThroughTheParser) {
    const std::string journal_path = temp_path("fleet_roundtrip.journal");
    fleet_service_config config;
    config.journal_path = journal_path;
    fleet_service service(mega_fleet(), config, fake_probe);
    service.run_campaign(-15);

    std::ifstream in(journal_path);
    std::string line;
    std::size_t parsed = 0;
    while (std::getline(in, line)) {
        std::size_t task_index = 0;
        std::string_view payload;
        ASSERT_TRUE(parse_journal_prefix(line, task_index, payload)) << line;
        probe_record probe;
        ASSERT_TRUE(parse_probe_line(payload, probe)) << payload;
        EXPECT_EQ(probe.sweep_mv, -15);
        EXPECT_EQ(probe.content, probe_content(probe.key, probe.sweep_mv));
        const probe_result* cached = service.cache().peek(probe.content);
        ASSERT_NE(cached, nullptr);
        // Doubles round-trip exactly (to_chars shortest form).
        EXPECT_EQ(probe.result.requirement_mv, cached->requirement_mv);
        EXPECT_EQ(probe.result.power_nominal_w, cached->power_nominal_w);
        EXPECT_EQ(probe.result.power_point_w, cached->power_point_w);
        EXPECT_EQ(probe.result.bucket, cached->bucket);
        ++parsed;
    }
    EXPECT_EQ(parsed, 36U);
}

TEST(FleetServiceTest, ProbeLineParserRejectsMalformedPayloads) {
    probe_record probe;
    EXPECT_FALSE(parse_probe_line("", probe));
    EXPECT_FALSE(parse_probe_line("run=1 core=0", probe));
    EXPECT_FALSE(
        parse_probe_line("probe corner=XXX class=0 op=0 variant=0", probe));
    EXPECT_FALSE(parse_probe_line(
        "probe corner=TTT class=0 op=0 variant=0 sweep=0", probe));
}

// --- the observatory ----------------------------------------------------

std::vector<alert_rule> drift_rules() {
    // A drift-slope rule over every Vmin series plus a threshold rule the
    // schedule never trips: the artifact must carry both loaded rules but
    // only the drift may fire.
    std::string error;
    const auto rules = parse_alert_rules(
        "# observatory test rules\n"
        "alert vmin-drift vmin.* slope 1.5 window 3\n"
        "alert power-ceiling fleet.power_binned_w above 1e9\n",
        "drift_rules", error);
    EXPECT_TRUE(rules.has_value()) << error;
    return rules.value_or(std::vector<alert_rule>{});
}

struct observatory_run {
    std::string snapshot;
    std::string journal;
    std::string timeline;
    std::vector<std::string> firing;
};

observatory_run run_observatory_cell(int workers,
                                     const std::string& journal_path) {
    timeline_recorder recorder;
    fleet_service_config config;
    config.workers = workers;
    config.journal_path = journal_path;
    config.timeline = &recorder;
    config.alerts = drift_rules();
    config.aging_mv_per_epoch = 2.0; // seeded drift: 2 mV per epoch
    fleet_service service(mega_fleet(), config, fake_probe);
    // Four epochs of the same sweep: epochs 2-4 are pure cache serves,
    // but the served Vmin still ages, so the drift slope reaches 2.0
    // mV/epoch >= the 1.5 threshold once the window fills.
    for (int epoch = 0; epoch < 4; ++epoch) {
        service.run_campaign(0);
    }
    return {service.state_snapshot(), slurp(journal_path),
            service.timeline_snapshot(),
            service.alert_state()->firing()};
}

TEST(FleetObservatoryTest, TimelineBytesAreInvariantUnderWorkersAndShards) {
    // The tentpole acceptance matrix: timeline.json bytes (and the
    // journal the observatory records ride in) are a pure function of
    // campaign content at engine workers 1/2/8.
    const observatory_run reference =
        run_observatory_cell(1, temp_path("fleet_obs_w1.journal"));
    ASSERT_FALSE(reference.timeline.empty());
    EXPECT_NE(reference.journal.find(" tline "), std::string::npos);
    EXPECT_NE(reference.journal.find(" tseal "), std::string::npos);

    for (const int workers : {2, 8}) {
        const observatory_run cell = run_observatory_cell(
            workers,
            temp_path("fleet_obs_w" + std::to_string(workers) + ".journal"));
        EXPECT_EQ(cell.timeline, reference.timeline)
            << "timeline diverged at workers=" << workers;
        EXPECT_EQ(cell.journal, reference.journal)
            << "journal diverged at workers=" << workers;
        EXPECT_EQ(cell.snapshot, reference.snapshot)
            << "snapshot diverged at workers=" << workers;
    }
}

TEST(FleetObservatoryTest, SeededDriftFiresTheSlopeRuleDeterministically) {
    const observatory_run run =
        run_observatory_cell(1, temp_path("fleet_obs_drift.journal"));
    // Every probed Vmin series ages identically, so every one of the 36
    // cohorts trips the drift rule -- and only the drift rule.
    ASSERT_EQ(run.firing.size(), 36U);
    for (const std::string& label : run.firing) {
        EXPECT_EQ(label.rfind("vmin-drift:vmin.", 0), 0U) << label;
    }
    // The artifact carries the same verdict.
    std::string error;
    const auto timeline = report::load_timeline(run.timeline, error);
    ASSERT_TRUE(timeline.has_value()) << error;
    EXPECT_EQ(timeline->alert_rules, 2U);
    EXPECT_EQ(timeline->firing, run.firing);
    // And the snapshot's fleet.timeline section agrees.
    const auto status = read_status_json(run.snapshot, error);
    ASSERT_TRUE(status.has_value()) << error;
    ASSERT_TRUE(status->fleet.has_value());
    ASSERT_TRUE(status->fleet->timeline.has_value());
    EXPECT_EQ(status->fleet->timeline->rules, 2U);
    EXPECT_EQ(status->fleet->timeline->firing, run.firing);
    EXPECT_EQ(status->fleet->timeline->series, 40U); // 36 vmin + 4 fleet.*
}

TEST(FleetObservatoryTest, RestartWarmsTheTimelineFromTheJournal) {
    const std::string journal_path = temp_path("fleet_obs_restart.journal");
    const observatory_run before = run_observatory_cell(1, journal_path);

    // A restarted daemon starts with an empty recorder and alert engine:
    // in-memory observability died with the process, only the journal
    // survives.  Replaying the same schedule must converge bitwise.
    timeline_recorder recorder;
    fleet_service_config config;
    config.journal_path = journal_path;
    config.timeline = &recorder;
    config.alerts = drift_rules();
    config.aging_mv_per_epoch = 2.0;
    fleet_service restarted(mega_fleet(), config); // no probe: journal only
    for (int epoch = 0; epoch < 4; ++epoch) {
        restarted.run_campaign(0);
    }
    EXPECT_EQ(restarted.timeline_snapshot(), before.timeline);
    EXPECT_EQ(restarted.state_snapshot(), before.snapshot);
    EXPECT_EQ(restarted.alert_state()->firing(), before.firing);
    // Replay appended nothing: the journal is stable.
    EXPECT_EQ(slurp(journal_path), before.journal);
}

TEST(FleetObservatoryTest, HostileRuleNamesKeepBothArtifactsParseable) {
    // Rule names are free-form tokens of the alert spec, and the firing
    // labels carry them into the snapshot and the timeline: a quote or a
    // raw control byte must arrive escaped in both.
    std::string error;
    const auto rules = parse_alert_rules("alert hot\"x vmin.* above 0\n"
                                         "alert ctl\x01name vmin.* above 0\n",
                                         "hostile_rules", error);
    ASSERT_TRUE(rules.has_value()) << error;
    fleet_spec spec;
    spec.nodes = 2000;
    timeline_recorder recorder;
    fleet_service_config config;
    config.timeline = &recorder;
    config.alerts = *rules;
    fleet_service service(spec, config, fake_probe);
    service.run_campaign(0);
    const std::vector<std::string> firing = service.alert_state()->firing();
    ASSERT_FALSE(firing.empty());

    for (const std::string& bytes :
         {service.state_snapshot(), service.timeline_snapshot()}) {
        const auto parsed = report::parse_json(bytes);
        EXPECT_TRUE(parsed.value.has_value()) << parsed.error;
    }
    const auto status = read_status_json(service.state_snapshot(), error);
    ASSERT_TRUE(status.has_value()) << error;
    ASSERT_TRUE(status->fleet && status->fleet->timeline);
    EXPECT_EQ(status->fleet->timeline->firing, firing);
    const auto timeline =
        report::load_timeline(service.timeline_snapshot(), error);
    ASSERT_TRUE(timeline.has_value()) << error;
    EXPECT_EQ(timeline->firing, firing);
}

TEST(FleetObservatoryTest, DisabledObservatoryKeepsLegacyBytes) {
    // config.timeline == nullptr must leave every artifact byte exactly
    // as the pre-observatory service wrote it: no tline/tseal records,
    // no fleet.timeline section.
    const std::string journal_path = temp_path("fleet_obs_off.journal");
    fleet_service_config config;
    config.journal_path = journal_path;
    fleet_service service(mega_fleet(), config, fake_probe);
    service.run_campaign(0);
    const std::string journal = slurp(journal_path);
    EXPECT_EQ(journal.find(" tline "), std::string::npos);
    EXPECT_EQ(journal.find(" tseal "), std::string::npos);
    EXPECT_EQ(service.state_snapshot().find("\"timeline\""),
              std::string::npos);
    EXPECT_TRUE(service.timeline_snapshot().empty());
}

// --- explicit-node fleets -----------------------------------------------

TEST(FleetServiceTest, ExplicitVariantsNeverShareAProbe) {
    fleet_spec spec;
    spec.node_jitter_mv = 0.0;
    for (std::uint64_t id = 0; id < 8; ++id) {
        fleet_node node;
        node.id = id;
        node.cohort.corner = process_corner::ttt;
        node.cohort.variant = static_cast<std::uint32_t>(id + 1);
        spec.explicit_nodes.push_back(node);
    }
    fleet_service service(spec, fleet_service_config{}, fake_probe);
    EXPECT_EQ(service.cohorts().size(), 8U);
    const campaign_outcome outcome = service.run_campaign(0);
    EXPECT_EQ(outcome.executed, 8U);
    EXPECT_EQ(outcome.cache_hits, 0U);
    EXPECT_EQ(service.node_count(), 8U);
}

} // namespace
} // namespace gb::fleet
