// SDC-defense acceptance tests: the Byzantine-rig PR's core criteria.
//
// A seeded sdc_plan silently falsifies one probe replica's values; the
// integrity subsystem (quorum-voted cache admission, hash-chained journal,
// rig reputation with blacklist repair, audit sampling of cache hits) must
// catch and correct every injection.  The strongest statements are
// bitwise: a defended run under attack converges to the exact journal and
// snapshot bytes of the same run without the attack, at any worker
// count.  The chain itself is unconditional: the default config
// writes and verifies it too.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/fleet.hpp"
#include "fleet/probe_cache.hpp"
#include "fleet/recovery.hpp"
#include "fleet/service.hpp"
#include "harness/fault_injection.hpp"
#include "harness/integrity/integrity.hpp"
#include "harness/trace/metrics.hpp"
#include "harness/trace/trace.hpp"
#include "util/wire.hpp"

namespace gb::fleet {
namespace {

std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void write_raw(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/// Bitwise equality of two probe results.
bool same_result(const probe_result& a, const probe_result& b) {
    return std::bit_cast<std::uint64_t>(a.requirement_mv) ==
               std::bit_cast<std::uint64_t>(b.requirement_mv) &&
           std::bit_cast<std::uint64_t>(a.power_nominal_w) ==
               std::bit_cast<std::uint64_t>(b.power_nominal_w) &&
           std::bit_cast<std::uint64_t>(a.power_point_w) ==
               std::bit_cast<std::uint64_t>(b.power_point_w) &&
           a.bucket == b.bucket;
}

std::vector<std::string> split_lines(const std::string& bytes) {
    std::vector<std::string> lines;
    std::istringstream in(bytes);
    std::string line;
    while (std::getline(in, line)) {
        lines.push_back(line);
    }
    return lines;
}

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

/// 36 cohorts (3 corners x 3 classes x 4 points), 36 probes per sweep.
fleet_spec small_fleet() {
    fleet_spec spec;
    spec.nodes = 10000;
    return spec;
}

struct run_result {
    std::string journal;
    std::string snapshot;
    std::uint64_t injected = 0;
    std::uint64_t detected = 0;
    std::uint64_t outvoted = 0;
    std::uint64_t corrected = 0;
    std::uint64_t escaped = 0;
    std::uint64_t audits = 0;
    std::uint64_t audit_mismatches = 0;
    std::uint64_t repaired = 0;
    std::uint64_t stalemates = 0;
    std::uint64_t blacklisted = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t dissents = 0;
};

struct run_options {
    std::vector<std::int64_t> sweeps = {0, 0};
    int quorum = 1;
    std::uint64_t audit_stride = 0;
    const char* sdc_spec = nullptr; ///< nullptr: no attack
    std::uint64_t blacklist_threshold = 2;
    int workers = 1;
    bool fresh_journal = true;
};

run_result run_service(const std::string& journal_path,
                       const run_options& options) {
    if (options.fresh_journal) {
        std::remove(journal_path.c_str());
    }
    const fleet_spec spec = small_fleet();
    std::optional<sdc_plan> sdc;
    if (options.sdc_spec != nullptr) {
        sdc_plan_config sdc_config;
        sdc_config.seed = spec.seed;
        std::string error;
        EXPECT_TRUE(parse_sdc_spec(options.sdc_spec, sdc_config, error))
            << error;
        sdc.emplace(std::move(sdc_config));
    }
    fleet_service_config config;
    config.journal_path = journal_path;
    config.workers = options.workers;
    config.integrity.quorum = options.quorum;
    config.integrity.sdc = sdc ? &*sdc : nullptr;
    config.integrity.audit_stride = options.audit_stride;
    config.integrity.blacklist_threshold = options.blacklist_threshold;
    fleet_service service(spec, config, fake_probe);
    for (const std::int64_t sweep : options.sweeps) {
        (void)service.run_campaign(sweep);
    }
    run_result result;
    result.journal = slurp(journal_path);
    result.snapshot = service.state_snapshot();
    result.injected = service.sdc_injected();
    result.detected = service.sdc_detected();
    result.outvoted = service.sdc_outvoted();
    result.corrected = service.sdc_corrected();
    result.escaped = service.sdc_escaped();
    result.audits = service.audits();
    result.audit_mismatches = service.audit_mismatches();
    result.repaired = service.repaired_entries();
    result.stalemates = service.quorum_stalemates();
    result.blacklisted = service.reputation().blacklisted_count();
    result.cache_hits = service.cache().hits();
    result.dissents = service.reputation().dissents();
    return result;
}

// --- probe_cache provenance and counters --------------------------------

TEST(ProbeCacheTest, CountersAreExactAndProvenanceRoundTrips) {
    probe_cache cache;
    EXPECT_EQ(cache.lookup(42), nullptr);
    EXPECT_EQ(cache.misses(), 1u);
    probe_result value;
    value.requirement_mv = 900.0;
    cache.insert(42, value, {3, 5});
    ASSERT_NE(cache.lookup(42), nullptr);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    ASSERT_NE(cache.provenance(42), nullptr);
    EXPECT_EQ(*cache.provenance(42), (std::vector<std::uint32_t>{3, 5}));
    // peek never counts.
    ASSERT_NE(cache.peek(42), nullptr);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.provenance(999), nullptr);
    cache.insert(7, value, {1});

    probe_result truth = value;
    truth.requirement_mv = 901.0;
    cache.insert(42, truth, {6});
    EXPECT_DOUBLE_EQ(cache.peek(42)->requirement_mv, 901.0);
    EXPECT_EQ(*cache.provenance(42), (std::vector<std::uint32_t>{6}));
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ProbeCacheTest, RequestedBitIsCountedOnceAndSurvivesOverwrites) {
    probe_cache cache;
    probe_result value;
    cache.insert(42, value, {3});
    cache.insert(7, value, {1});
    EXPECT_EQ(cache.requested(), 0u);
    EXPECT_FALSE(cache.mark_requested(42)); // first request
    EXPECT_TRUE(cache.mark_requested(42));  // a repeat: scheduled hit
    EXPECT_EQ(cache.requested(), 1u);
    value.requirement_mv = 901.0;
    cache.insert(42, value, {4});
    cache.insert(42, value, {5});
    EXPECT_TRUE(cache.mark_requested(42));
    EXPECT_FALSE(cache.mark_requested(7));
    EXPECT_EQ(cache.requested(), 2u);
}

TEST(ProbeCacheTest, CompactIndexSurvivesGrowthsCollisionsAndContentZero) {
    // Over 10^5 inserts the index doubles from 16 to 2^18 slots.  The ids
    // colliding with content 0 at 2^18 slots collide at every smaller
    // power of two too, so they form one linear-probing cluster through
    // every growth.
    constexpr std::size_t final_slots = std::size_t{1} << 18;
    const std::size_t home = probe_cache::home_slot(0, final_slots);
    std::vector<std::uint64_t> colliding{0};
    for (std::uint64_t c = 1; colliding.size() < 9; ++c) {
        if (probe_cache::home_slot(c, final_slots) == home) {
            colliding.push_back(c);
        }
    }
    // The last colliding id is never inserted: a miss that probes through
    // the whole cluster.
    const std::uint64_t absent = colliding.back();
    colliding.pop_back();

    std::vector<std::uint64_t> contents = colliding;
    std::uint64_t state = 0x5eedULL;
    while (contents.size() < 100000 + colliding.size()) {
        const std::uint64_t c = splitmix64(state);
        if (probe_cache::home_slot(c, final_slots) != home) {
            contents.push_back(c);
        }
    }
    const std::vector<std::vector<std::uint32_t>> rig_lists{
        {0, 1, 2}, {1, 4, 6}, {2, 3, 7}, {5}};
    const auto value_of = [](std::uint64_t content) {
        probe_result value;
        value.requirement_mv = static_cast<double>(content % 1000);
        value.power_nominal_w = static_cast<double>(content >> 40);
        value.power_point_w = 0.5;
        value.bucket = static_cast<int>(content % 3);
        return value;
    };

    probe_cache cache;
    std::vector<std::size_t> slot_history;
    const probe_result* first = nullptr;
    const std::vector<std::uint32_t>* first_rigs = nullptr;
    for (std::size_t i = 0; i < contents.size(); ++i) {
        cache.insert(contents[i], value_of(contents[i]),
                     rig_lists[i % rig_lists.size()]);
        if (i == 0) {
            first = cache.peek(0);
            first_rigs = cache.provenance(0);
        }
        if (slot_history.empty() ||
            slot_history.back() != cache.index_slots()) {
            slot_history.push_back(cache.index_slots());
        }
        ASSERT_LE(2 * cache.size(), cache.index_slots());
    }
    EXPECT_EQ(cache.size(), contents.size());
    EXPECT_EQ(cache.index_slots(), final_slots);
    EXPECT_EQ(slot_history.size(), 15u); // 16, 32, ..., 2^18
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);

    // Entry chunks never move: pointers taken before every growth still
    // address content 0's entry.
    EXPECT_EQ(first, cache.peek(0));
    EXPECT_EQ(first_rigs, cache.provenance(0));

    for (std::size_t i = 0; i < contents.size(); ++i) {
        const probe_result* got = cache.lookup(contents[i]);
        ASSERT_NE(got, nullptr) << "content " << contents[i];
        EXPECT_TRUE(same_result(*got, value_of(contents[i])));
        ASSERT_NE(cache.provenance(contents[i]), nullptr);
        EXPECT_EQ(*cache.provenance(contents[i]),
                  rig_lists[i % rig_lists.size()]);
        // Equal lists are interned once.
        EXPECT_EQ(cache.provenance(contents[i]),
                  cache.provenance(contents[i % rig_lists.size()]));
    }
    EXPECT_EQ(cache.hits(), contents.size());
    EXPECT_EQ(cache.lookup(absent), nullptr);
    EXPECT_EQ(cache.peek(absent), nullptr);
    EXPECT_EQ(cache.provenance(absent), nullptr);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(ProbeCacheTest, OverwriteAndRepairKeepRequestedBitAndCounters) {
    probe_cache cache;
    probe_result value;
    value.requirement_mv = 900.0;
    cache.insert(0, value, {1, 2, 3});
    cache.insert(42, value, {1, 2, 3});
    ASSERT_NE(cache.lookup(0), nullptr);
    EXPECT_EQ(cache.lookup(5), nullptr);
    EXPECT_FALSE(cache.mark_requested(0));

    probe_result changed = value;
    changed.requirement_mv = 905.0;
    changed.bucket = 2;
    cache.insert(0, changed, {4, 5, 6});
    EXPECT_TRUE(same_result(*cache.peek(0), changed));
    cache.insert(0, value, {1, 2, 3});
    cache.insert(42, changed, {7});
    EXPECT_TRUE(same_result(*cache.peek(0), value));
    EXPECT_TRUE(same_result(*cache.peek(42), changed));
    EXPECT_EQ(*cache.provenance(42), (std::vector<std::uint32_t>{7}));

    // Overwrites never add entries, move counters or clear the requested
    // bit.
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.requested(), 1u);
    EXPECT_TRUE(cache.mark_requested(0));
    EXPECT_FALSE(cache.mark_requested(42));
    EXPECT_EQ(cache.requested(), 2u);
}

TEST(ProbeCacheTest, ProvenanceIsInternedAndEqualToWhatWasInserted) {
    probe_cache cache;
    probe_result value;
    // Admissions store the quorum's assigned rigs: equal lists share one
    // interned copy.
    cache.insert(1, value, {1, 3, 5});
    cache.insert(2, value, {1, 3, 5});
    EXPECT_EQ(cache.provenance(1), cache.provenance(2));
    // A journal-restored list need not be any content's assigned rigs (an
    // older rig pool, a shorter list): it is interned verbatim, order
    // included.
    const std::vector<std::uint32_t> restored{9, 2};
    cache.insert(3, value, restored);
    EXPECT_EQ(*cache.provenance(3), restored);
    EXPECT_NE(cache.provenance(3), cache.provenance(1));
    // Re-pointing an entry at another set leaves the other entries' sets
    // alone and reuses the interned copy.
    const std::vector<std::uint32_t>* assigned = cache.provenance(2);
    cache.insert(1, value, restored);
    EXPECT_EQ(*cache.provenance(1), restored);
    EXPECT_EQ(cache.provenance(1), cache.provenance(3));
    EXPECT_EQ(cache.provenance(2), assigned);
    EXPECT_EQ(*assigned, (std::vector<std::uint32_t>{1, 3, 5}));
    cache.insert(4, value, {});
    EXPECT_TRUE(cache.provenance(4)->empty());
}

// --- quorum admission ---------------------------------------------------

TEST(FleetIntegrityTest, QuorumOutvotesEverySingleRigCorruption) {
    // Acceptance sweep: inject one corruption at *every* replica
    // opportunity of the campaign (36 probes x 3 replicas), across all
    // four corruption sites.  A quorum of 3 must outvote 100% of them and
    // reproduce the clean run's journal and snapshot bitwise.
    const std::string journal_path = temp_path("integrity_outvote.journal");
    run_options clean_options;
    clean_options.sweeps = {0};
    clean_options.quorum = 3;
    const run_result clean = run_service(journal_path, clean_options);
    ASSERT_FALSE(clean.journal.empty());
    EXPECT_EQ(clean.detected, 0u);

    const char* const sites[] = {"vmin_flip", "weak_drop", "weak_phantom",
                                 "power_scale"};
    for (std::uint64_t opportunity = 1; opportunity <= 108; ++opportunity) {
        const std::string spec = std::string(sites[opportunity % 4]) + "@" +
                                 std::to_string(opportunity);
        run_options attack = clean_options;
        attack.sdc_spec = spec.c_str();
        const run_result attacked = run_service(journal_path, attack);
        ASSERT_EQ(attacked.injected, 1u) << spec;
        EXPECT_EQ(attacked.outvoted, 1u) << spec;
        EXPECT_EQ(attacked.detected, 1u) << spec;
        EXPECT_EQ(attacked.escaped, 0u) << spec;
        EXPECT_EQ(attacked.stalemates, 0u) << spec;
        ASSERT_EQ(attacked.journal, clean.journal) << spec;
        ASSERT_EQ(attacked.snapshot, clean.snapshot) << spec;
    }
}

TEST(FleetIntegrityTest, UndefendedCorruptionEscapesAndIsCounted) {
    // Negative control: with a lone replica and no audit, the same
    // corruption poisons the pipeline -- and the accounting says so.
    const std::string journal_path = temp_path("integrity_escape.journal");
    run_options clean_options;
    clean_options.sweeps = {0};
    clean_options.quorum = 1;
    clean_options.audit_stride = 0;
    const run_result clean = run_service(journal_path, clean_options);
    run_options attack = clean_options;
    attack.sdc_spec = "vmin_flip@5";
    const run_result attacked = run_service(journal_path, attack);
    EXPECT_EQ(attacked.injected, 1u);
    EXPECT_EQ(attacked.detected, 0u);
    EXPECT_EQ(attacked.escaped, 1u);
    EXPECT_NE(attacked.journal, clean.journal);
    EXPECT_NE(attacked.snapshot, clean.snapshot);
}

// --- audit sampling and repair ------------------------------------------

TEST(FleetIntegrityTest, AuditCatchesAndRepairsAPoisonedCacheBitwise) {
    // Quorum 1 admits the poison; the second campaign's scheduled hits
    // are audited (stride 1 = every hit), the mismatch is arbitrated and
    // the cache, cohort state and journal are repaired in place --
    // converging bitwise to the never-poisoned run.
    const std::string journal_path = temp_path("integrity_audit.journal");
    run_options clean_options;
    clean_options.sweeps = {0, 0};
    clean_options.quorum = 1;
    clean_options.audit_stride = 1;
    const run_result clean = run_service(journal_path, clean_options);
    EXPECT_EQ(clean.audits, 36u);
    EXPECT_EQ(clean.audit_mismatches, 0u);
    EXPECT_EQ(clean.cache_hits, 36u);

    run_options attack = clean_options;
    attack.sdc_spec = "vmin_flip@5";
    const run_result attacked = run_service(journal_path, attack);
    EXPECT_EQ(attacked.injected, 1u);
    EXPECT_EQ(attacked.audit_mismatches, 1u);
    EXPECT_EQ(attacked.detected, 1u);
    EXPECT_EQ(attacked.corrected, 1u);
    EXPECT_EQ(attacked.escaped, 0u);
    EXPECT_GE(attacked.repaired, 1u);
    EXPECT_EQ(attacked.dissents, 1u);
    EXPECT_EQ(attacked.journal, clean.journal);
    EXPECT_EQ(attacked.snapshot, clean.snapshot);
}

TEST(FleetIntegrityTest, EveryCorruptionSiteIsAuditRepairable) {
    const std::string journal_path = temp_path("integrity_sites.journal");
    run_options clean_options;
    clean_options.sweeps = {0, 0};
    clean_options.quorum = 1;
    clean_options.audit_stride = 1;
    const run_result clean = run_service(journal_path, clean_options);
    for (const char* spec : {"weak_drop@3", "weak_phantom@17/2",
                             "power_scale@30"}) {
        run_options attack = clean_options;
        attack.sdc_spec = spec;
        const run_result attacked = run_service(journal_path, attack);
        ASSERT_EQ(attacked.injected, 1u) << spec;
        EXPECT_EQ(attacked.corrected, 1u) << spec;
        EXPECT_EQ(attacked.escaped, 0u) << spec;
        EXPECT_EQ(attacked.journal, clean.journal) << spec;
        EXPECT_EQ(attacked.snapshot, clean.snapshot) << spec;
    }
}

// --- rig reputation and blacklist repair --------------------------------

TEST(FleetIntegrityTest, BlacklistedRigsSoleSourcedHistoryIsReExecuted) {
    // Blacklist threshold 1: the first audit-caught lie quarantines the
    // rig, and the repair sweep re-executes every journal entry that only
    // that rig vouched for.  The end state still converges bitwise.
    const std::string journal_path =
        temp_path("integrity_blacklist.journal");
    run_options clean_options;
    clean_options.sweeps = {0, 0};
    clean_options.quorum = 1;
    clean_options.audit_stride = 1;
    clean_options.blacklist_threshold = 1;
    const run_result clean = run_service(journal_path, clean_options);
    EXPECT_EQ(clean.blacklisted, 0u);

    run_options attack = clean_options;
    attack.sdc_spec = "vmin_flip@5";
    const run_result attacked = run_service(journal_path, attack);
    EXPECT_EQ(attacked.blacklisted, 1u);
    EXPECT_EQ(attacked.corrected, 1u);
    EXPECT_EQ(attacked.escaped, 0u);
    EXPECT_EQ(attacked.journal, clean.journal);
    EXPECT_EQ(attacked.snapshot, clean.snapshot);
}

TEST(FleetIntegrityTest, BlacklistRepairReExecutesInJournalFileOrder) {
    // The repair sweep walks the journal file in file order, and that order
    // fixes which re-execution draws which SDC opportunity.  Opportunities
    // before the sweep: 36 admissions, 36 audits and 3 arbiters for the
    // caught lie -- so @77 lands on the sweep's second re-execution.  At
    // quorum 1 nothing outvotes it: exactly the second record (in file
    // order) sole-sourced by the blacklisted rig carries the new lie.
    const std::string journal_path =
        temp_path("integrity_repair_order.journal");
    run_options clean_options;
    clean_options.sweeps = {0, 0};
    clean_options.quorum = 1;
    clean_options.audit_stride = 1;
    clean_options.blacklist_threshold = 1;
    const std::vector<std::string> clean =
        split_lines(run_service(journal_path, clean_options).journal);

    run_options attack = clean_options;
    attack.sdc_spec = "vmin_flip@5,vmin_flip@77";
    const run_result attacked = run_service(journal_path, attack);
    ASSERT_EQ(attacked.injected, 2u);
    ASSERT_EQ(attacked.blacklisted, 1u);
    const std::vector<std::string> lines = split_lines(attacked.journal);
    ASSERT_EQ(lines.size(), clean.size());

    // The first lie was probe 5's admission: its rig is the blacklisted one.
    const auto field = [](const std::string& line, const std::string& name) {
        const std::size_t at = line.find(" " + name + "=");
        return line.substr(at, line.find(' ', at + 1) - at);
    };
    const std::string blacklisted = field(clean[4], "rigs");
    std::vector<std::size_t> sole_sourced;
    for (std::size_t i = 0; i < clean.size(); ++i) {
        if (field(clean[i], "rigs") == blacklisted) {
            sole_sourced.push_back(i);
        }
    }
    ASSERT_GE(sole_sourced.size(), 2u);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        EXPECT_EQ(field(lines[i], "req") != field(clean[i], "req"),
                  i == sole_sourced[1])
            << "record " << i;
    }
}

// --- hash-chained journal ------------------------------------------------

/// Parameterized over the quorum: 1 is the default config, 3 the
/// defended one -- both write and verify the same chained format.
class FleetChainTest : public ::testing::TestWithParam<int> {
protected:
    void SetUp() override {
        std::string name =
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
        std::replace(name.begin(), name.end(), '/', '_');
        journal_path_ = temp_path("integrity_chain_" + name + ".journal");
        run_options options;
        options.sweeps = {0};
        options.quorum = GetParam();
        reference_ = run_service(journal_path_, options);
        lines_ = split_lines(reference_.journal);
        ASSERT_GE(lines_.size(), 3u);
    }

    /// Replace `field=<old>` with `field=<value>` in a copied line.
    [[nodiscard]] static std::string with_field(std::string line,
                                                const std::string& field,
                                                const std::string& value) {
        const std::size_t start = line.find(" " + field + "=");
        EXPECT_NE(start, std::string::npos) << field << " in " << line;
        const std::size_t from = start + field.size() + 2;
        std::size_t to = line.find(' ', from);
        if (to == std::string::npos) {
            to = line.size();
        }
        return line.replace(from, to - from, value);
    }

    void expect_reject(const std::string& bytes, const std::string& needle) {
        write_raw(journal_path_, bytes);
        fleet_service_config config;
        config.journal_path = journal_path_;
        config.integrity.quorum = GetParam();
        try {
            fleet_service service(small_fleet(), config, fake_probe);
            FAIL() << "journal accepted; wanted rejection: " << needle;
        } catch (const fleet_journal_error& error) {
            EXPECT_NE(std::string(error.what()).find(needle),
                      std::string::npos)
                << error.what();
            EXPECT_NE(std::string(error.what()).find(journal_path_),
                      std::string::npos)
                << "diagnostic names the file: " << error.what();
        }
    }

    std::string journal_path_;
    run_result reference_;
    std::vector<std::string> lines_;
};

TEST_P(FleetChainTest, JournalCarriesRigsAndChainFields) {
    for (const std::string& line : lines_) {
        EXPECT_NE(line.find(" rigs="), std::string::npos) << line;
        // The chain is the last field: it covers everything before it.
        const std::size_t chain = line.rfind(" chain=");
        ASSERT_NE(chain, std::string::npos) << line;
        EXPECT_EQ(line.size() - chain, 7u + 16u) << line;
    }
}

TEST_P(FleetChainTest, InPlaceValueEditBreaksTheChainOnWarm) {
    // Tamper with record 1's requirement but keep its (now stale) chain:
    // warm reports the mismatch with file:line.
    std::vector<std::string> tampered = lines_;
    tampered[1] = with_field(tampered[1], "req", "999.5");
    std::string bytes;
    for (const std::string& line : tampered) {
        bytes += line + "\n";
    }
    expect_reject(bytes, ":2: chain hash mismatch");
}

TEST_P(FleetChainTest, ReorderingIntactRecordsBreaksTheChain) {
    // Both lines are individually authentic; swapping them (and their
    // task= serials, so the serial check passes) still breaks the links.
    std::vector<std::string> tampered = lines_;
    std::string a = tampered[1].substr(tampered[1].find(' ') + 1);
    std::string b = tampered[2].substr(tampered[2].find(' ') + 1);
    tampered[1] = "task=1 " + b;
    tampered[2] = "task=2 " + a;
    std::string bytes;
    for (const std::string& line : tampered) {
        bytes += line + "\n";
    }
    expect_reject(bytes, "chain hash mismatch");
}

TEST_P(FleetChainTest, MissingOrGarbageChainIsRejected) {
    const std::size_t chain = lines_[0].rfind(" chain=");
    ASSERT_NE(chain, std::string::npos);
    expect_reject(lines_[0].substr(0, chain) + "\n", "missing chain hash");
    expect_reject(lines_[0].substr(0, chain) + " chain=nothex\n",
                  "unparseable chain hash");
}

TEST_P(FleetChainTest, TornTailStillSelfHealsUnderIntegrity) {
    // The chain defends against in-place edits; the torn-tail heal (this
    // writer's own crash damage) must keep working above it.
    const std::string torn =
        reference_.journal + "task=36 probe corner=TTT cla";
    write_raw(journal_path_, torn);
    fleet_service_config config;
    config.journal_path = journal_path_;
    config.integrity.quorum = GetParam();
    fleet_service healed(small_fleet(), config, fake_probe);
    EXPECT_EQ(healed.healed_bytes(), torn.size() - reference_.journal.size());
    EXPECT_EQ(healed.restored(), 36u);
    EXPECT_EQ(slurp(journal_path_), reference_.journal);
}

INSTANTIATE_TEST_SUITE_P(, FleetChainTest, ::testing::Values(1, 3));

// --- restart-warm convergence -------------------------------------------

TEST(FleetIntegrityTest, CountersAndBytesConvergeAcrossRestartWarm) {
    // The poisoned-then-repaired journal warms a fresh service whose
    // chain verifies end to end; replaying the schedule serves pure hits
    // with exact counters and leaves every byte unchanged.
    const std::string journal_path = temp_path("integrity_restart.journal");
    run_options attack;
    attack.sweeps = {0, 0};
    attack.quorum = 1;
    attack.audit_stride = 1;
    attack.sdc_spec = "vmin_flip@5";
    const run_result first = run_service(journal_path, attack);
    EXPECT_EQ(first.corrected, 1u);

    run_options replay;
    replay.sweeps = {0, 0};
    replay.quorum = 1;
    replay.audit_stride = 1;
    replay.fresh_journal = false; // warm over the repaired journal
    const run_result warmed = run_service(journal_path, replay);
    EXPECT_EQ(warmed.cache_hits, 72u); // both sweeps served from warm
    EXPECT_EQ(warmed.dissents, 0u);
    EXPECT_EQ(warmed.audit_mismatches, 0u);
    EXPECT_EQ(warmed.journal, first.journal);
    EXPECT_EQ(warmed.snapshot, first.snapshot);
}

TEST(FleetIntegrityTest, UnchainedJournalIsRejectedByDefault) {
    // A journal without chain links (as an older undefended service wrote
    // it) cannot be verified, so even a default-config warm refuses to
    // vouch for it instead of guessing.
    const std::string journal_path = temp_path("integrity_unchained.journal");
    run_options options;
    options.sweeps = {0};
    std::string unchained;
    for (const std::string& line :
         split_lines(run_service(journal_path, options).journal)) {
        unchained += line.substr(0, line.find(" rigs=")) + "\n";
    }
    write_raw(journal_path, unchained);
    fleet_service_config config;
    config.journal_path = journal_path;
    try {
        fleet_service service(small_fleet(), config, fake_probe);
        FAIL() << "unchained journal accepted";
    } catch (const fleet_journal_error& error) {
        EXPECT_NE(std::string(error.what()).find(":1: missing chain hash"),
                  std::string::npos)
            << error.what();
    }
}

// --- purity across workers and the recovery checker --------------------

TEST(FleetIntegrityTest, DefendedBytesAreShardAndWorkerInvariant) {
    const std::string journal_path =
        temp_path("integrity_invariance.journal");
    const auto bytes_at = [&](int workers) {
        run_options options;
        options.sweeps = {0, -5, 0};
        options.quorum = 3;
        options.audit_stride = 2;
        options.sdc_spec = "vmin_flip@5,power_scale@40";
        options.workers = workers;
        const run_result result = run_service(journal_path, options);
        EXPECT_EQ(result.escaped, 0u) << "workers=" << workers;
        return result.journal + "\x1f" + result.snapshot;
    };
    const std::string reference = bytes_at(1);
    EXPECT_EQ(bytes_at(4), reference);
    EXPECT_EQ(bytes_at(8), reference);
}

TEST(FleetIntegrityTest, CrashRecoveryConvergesWithDefensesOn) {
    // The chaos harness and the integrity subsystem compose: an armed
    // crash mid-campaign recovers to the same defended bytes (chain
    // included) as the never-crashed golden run.
    recovery_check_config config;
    config.spec = small_fleet();
    config.sweeps = {0, -5, 0};
    config.chaos.seed = 1234;
    config.chaos.triggers = {{chaos_site::journal_append, 2000},
                             {chaos_site::snapshot_rename, 1}};
    config.service.workers = 8;
    config.work_dir = temp_path("integrity_recovery");
    config.probe = fake_probe;
    config.service.integrity.quorum = 3;
    config.service.integrity.audit_stride = 2;
    const recovery_report report = run_recovery_check(config);
    EXPECT_TRUE(report.converged()) << report.failure;
    EXPECT_EQ(report.crashes, 2u);
}

// --- one probe execution per probe: differential guard -----------------

struct guard_case {
    int quorum = 1;
    bool sdc = false;
    double fault_rate = 0.0;
    int replan_rounds = 2;
    std::uint64_t audit_stride = 0;
    std::uint64_t blacklist_threshold = 2;
};

std::string guard_name(const guard_case& c) {
    std::ostringstream name;
    name << 'q' << c.quorum << (c.sdc ? "/sdc" : "/honest")
         << (c.fault_rate > 0.0 ? "/faulty" : "/healthy") << "/replan"
         << c.replan_rounds;
    if (c.audit_stride > 0) {
        name << "/audit" << c.audit_stride << "/blacklist"
             << c.blacklist_threshold;
    }
    return name.str();
}

/// The full matrix (quorum x attack x rig faults x re-plan rounds), then
/// the audit and blacklist-repair paths at quorums 3 and 1.
std::vector<guard_case> guard_cases() {
    std::vector<guard_case> cases;
    for (const int quorum : {1, 3, 5}) {
        for (const bool sdc : {false, true}) {
            for (const double fault_rate : {0.0, 0.6}) {
                for (const int replan_rounds : {0, 2}) {
                    cases.push_back(
                        {quorum, sdc, fault_rate, replan_rounds, 0, 2});
                }
            }
        }
    }
    cases.push_back({3, true, 0.0, 2, 4, 1});
    cases.push_back({1, true, 0.0, 2, 1, 1});
    return cases;
}

struct guard_run {
    std::uint64_t digest = fnv1a_basis;
    std::uint64_t probe_calls = 0;
    std::uint64_t engine_tasks = 0;
    std::uint64_t audits = 0;
    std::uint64_t audit_mismatches = 0;
    std::uint64_t replica_executions = 0;
};

/// Three campaigns (a fresh sweep, a second fresh sweep, then a repeat of
/// the first) under one guard case, with a call-counting probe.  The
/// digest folds the journal bytes, the snapshot bytes and the integrity
/// counters.
guard_run run_guard_case(const guard_case& c, const std::string& path) {
    std::remove(path.c_str());
    const fleet_spec spec = small_fleet();
    // One lie per campaign: in the first sweep's admissions, in the
    // second's, and in whatever the third campaign executes or audits.
    std::optional<sdc_plan> sdc;
    if (c.sdc) {
        std::ostringstream spec_text;
        spec_text << "vmin_flip@5,weak_drop@" << 36 * c.quorum + 7
                  << ",power_scale@" << 72 * c.quorum + 2;
        sdc_plan_config sdc_config;
        sdc_config.seed = spec.seed;
        std::string error;
        EXPECT_TRUE(parse_sdc_spec(spec_text.str(), sdc_config, error))
            << error;
        sdc.emplace(std::move(sdc_config));
    }
    std::optional<fault_plan> faults;
    if (c.fault_rate > 0.0) {
        faults.emplace(make_uniform_fault_plan(spec.seed, c.fault_rate));
    }
    fleet_service_config config;
    config.journal_path = path;
    config.faults = faults ? &*faults : nullptr;
    config.replan_rounds = c.replan_rounds;
    config.integrity.quorum = c.quorum;
    config.integrity.sdc = sdc ? &*sdc : nullptr;
    config.integrity.audit_stride = c.audit_stride;
    config.integrity.blacklist_threshold = c.blacklist_threshold;
    std::atomic<std::uint64_t> calls{0};
    guard_run run;
    {
        fleet_service service(
            spec, config, [&calls](const probe_request& request) {
                calls.fetch_add(1, std::memory_order_relaxed);
                return fake_probe(request);
            });
        for (const std::int64_t sweep : {0, 5, 0}) {
            run.engine_tasks += service.run_campaign(sweep).stats.tasks;
        }
        run.audits = service.audits();
        run.audit_mismatches = service.audit_mismatches();
        run.replica_executions = service.replica_executions();
        std::string counters;
        for (const std::uint64_t value :
             {service.sdc_injected(), service.sdc_detected(),
              service.sdc_outvoted(), service.sdc_corrected(),
              service.audits(), service.audit_mismatches(),
              service.quorum_stalemates(), service.repaired_entries(),
              service.replica_executions(),
              service.reputation().blacklisted_count()}) {
            counters += std::to_string(value) + ' ';
        }
        run.digest = fnv1a_bytes(run.digest, slurp(path));
        run.digest = fnv1a_bytes(run.digest, service.state_snapshot());
        run.digest = fnv1a_bytes(run.digest, counters);
    }
    run.probe_calls = calls.load();
    return run;
}

TEST(FleetIntegrityTest, OneProbeExecutionKeepsEveryByteAndCounter) {
    // Produced by running this test body against the previous
    // implementation, which executed the probe once per replica and drew
    // rig faults inside each replica's engine task.  Serial fault planning
    // and one shared execution must leave every journal, snapshot and
    // integrity-counter value exactly where that implementation put it.
    const std::vector<std::pair<std::string, std::uint64_t>> expected = {
        {"q1/honest/healthy/replan0", 16892734142142285424ULL},
        {"q1/honest/healthy/replan2", 16892734142142285424ULL},
        {"q1/honest/faulty/replan0", 7558967114145419114ULL},
        {"q1/honest/faulty/replan2", 10828500668329045386ULL},
        {"q1/sdc/healthy/replan0", 5198797227177742217ULL},
        {"q1/sdc/healthy/replan2", 5198797227177742217ULL},
        {"q1/sdc/faulty/replan0", 8069946904839459058ULL},
        {"q1/sdc/faulty/replan2", 16361737707990208086ULL},
        {"q3/honest/healthy/replan0", 1831603106150133802ULL},
        {"q3/honest/healthy/replan2", 1831603106150133802ULL},
        {"q3/honest/faulty/replan0", 6072951881422657632ULL},
        {"q3/honest/faulty/replan2", 4604717201890163410ULL},
        {"q3/sdc/healthy/replan0", 1836017915486026924ULL},
        {"q3/sdc/healthy/replan2", 1836017915486026924ULL},
        {"q3/sdc/faulty/replan0", 11459596943951090071ULL},
        {"q3/sdc/faulty/replan2", 13297018045024289140ULL},
        {"q5/honest/healthy/replan0", 8965800086103237869ULL},
        {"q5/honest/healthy/replan2", 8965800086103237869ULL},
        {"q5/honest/faulty/replan0", 12594577604872303566ULL},
        {"q5/honest/faulty/replan2", 5893093055421000627ULL},
        {"q5/sdc/healthy/replan0", 11811987284763879359ULL},
        {"q5/sdc/healthy/replan2", 11811987284763879359ULL},
        {"q5/sdc/faulty/replan0", 5426978880370983265ULL},
        {"q5/sdc/faulty/replan2", 11153420117963634492ULL},
        {"q3/sdc/healthy/replan2/audit4/blacklist1", 8650335108380819692ULL},
        {"q1/sdc/healthy/replan2/audit1/blacklist1", 2839155064182413003ULL},
    };
    const std::vector<guard_case> cases = guard_cases();
    ASSERT_EQ(cases.size(), expected.size());
    const std::string path = temp_path("integrity_guard.journal");
    std::uint64_t rearbitrated_total = 0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const guard_case& c = cases[i];
        SCOPED_TRACE(guard_name(c));
        const guard_run run = run_guard_case(c, path);
        EXPECT_EQ(expected[i].first, guard_name(c));
        EXPECT_EQ(run.digest, expected[i].second)
            << "{\"" << guard_name(c) << "\", " << run.digest << "ULL},";

        // The probe runs once per executed probe (one engine task each),
        // once per audited hit (shared with its arbitration) and once per
        // re-arbitrated record; the replicas, audit arbiters and repair
        // quorums that vote over those values are logical only.
        const auto q = static_cast<std::uint64_t>(c.quorum);
        const auto arbiters = static_cast<std::uint64_t>(
            std::max(3, c.quorum | 1));
        const std::uint64_t voted = q * run.engine_tasks + run.audits +
                                    arbiters * run.audit_mismatches;
        ASSERT_GE(run.replica_executions, voted);
        const std::uint64_t repair_votes = run.replica_executions - voted;
        ASSERT_EQ(repair_votes % q, 0u);
        const std::uint64_t rearbitrated = repair_votes / q;
        rearbitrated_total += rearbitrated;
        EXPECT_EQ(run.probe_calls,
                  run.engine_tasks + run.audits + rearbitrated);
        if (c.quorum > 1) {
            EXPECT_LT(run.probe_calls, run.replica_executions);
        }
    }
    // The matrix reaches the blacklist repair sweep.
    EXPECT_GT(rearbitrated_total, 0u);
}

TEST(FleetIntegrityTest, OneEngineRunPerRoundKeepsTraceAndMetricsBytes) {
    // Digests of the exported trace and metrics JSON of a quorum-3 fleet
    // under rig faults, produced by the previous implementation, which
    // could split a round's probes over several engine runs, at one run
    // per round -- with its always-zero `fleet.shard_watchdog_trips`
    // counter cut from the metrics.  One engine run per round must be that
    // path byte for byte, at any worker count.
    constexpr std::uint64_t expected_trace = 14726299425707734534ULL;
    constexpr std::uint64_t expected_metrics = 4747037715547356568ULL;
    const fleet_spec spec = small_fleet();
    const fault_plan faults = make_uniform_fault_plan(spec.seed, 0.5);
    for (const int workers : {1, 4}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        tracer trace;
        metrics_registry metrics;
        fleet_service_config config;
        config.workers = workers;
        config.trace = &trace;
        config.metrics = &metrics;
        config.faults = &faults;
        config.replan_rounds = 2;
        config.integrity.quorum = 3;
        fleet_service service(spec, config, fake_probe);
        std::uint64_t replanned = 0;
        for (const std::int64_t sweep : {0, 5, 0}) {
            replanned += service.run_campaign(sweep).replanned;
        }
        EXPECT_GT(replanned, 0u);
        std::ostringstream trace_json;
        write_chrome_trace(trace_json, trace);
        std::ostringstream metrics_json;
        write_metrics_json(metrics_json, metrics);
        const std::uint64_t trace_digest =
            fnv1a_bytes(fnv1a_basis, trace_json.str());
        const std::uint64_t metrics_digest =
            fnv1a_bytes(fnv1a_basis, metrics_json.str());
        EXPECT_EQ(trace_digest, expected_trace) << trace_digest << "ULL";
        EXPECT_EQ(metrics_digest, expected_metrics)
            << metrics_digest << "ULL";
    }
}

// --- the default config ------------------------------------------------

TEST(FleetIntegrityTest, DefaultConfigChainsTheJournalButRegistersNoGauges) {
    // The chain is unconditional; what the defaults leave out is the
    // integrity accounting: no snapshot section, no `integrity.*` gauges
    // (so `gbreport audit` never reads an undefended run as clean).
    const std::string journal_path = temp_path("integrity_default.journal");
    std::remove(journal_path.c_str());
    metrics_registry metrics;
    fleet_service_config config;
    config.journal_path = journal_path;
    config.metrics = &metrics;
    fleet_service service(small_fleet(), config, fake_probe);
    (void)service.run_campaign(0);
    const std::vector<std::string> lines = split_lines(slurp(journal_path));
    ASSERT_EQ(lines.size(), 36u);
    for (const std::string& line : lines) {
        EXPECT_NE(line.find(" rigs="), std::string::npos) << line;
        EXPECT_NE(line.find(" chain="), std::string::npos) << line;
    }
    EXPECT_EQ(service.state_snapshot().find("integrity"), std::string::npos);
    std::ostringstream json;
    write_metrics_json(json, metrics);
    EXPECT_NE(json.str().find("fleet.chips"), std::string::npos);
    EXPECT_EQ(json.str().find("integrity."), std::string::npos);
}

} // namespace
} // namespace gb::fleet
