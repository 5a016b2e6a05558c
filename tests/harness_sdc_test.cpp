// The attack half of the SDC story (harness/fault_injection's sdc_plan)
// and the integrity primitives that defeat it (harness/integrity).  The
// composed defense -- quorum admission, chained journal, audit repair in
// the fleet service -- is covered end to end by fleet_integrity_test.
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "harness/fault_injection.hpp"
#include "harness/integrity/integrity.hpp"

namespace gb {
namespace {

// --- sdc_plan ------------------------------------------------------------

TEST(sdc_plan_test, trigger_fires_once_at_its_opportunity) {
    sdc_plan_config config;
    config.seed = 7;
    config.triggers.push_back({sdc_site::vmin_flip, 3, 11});
    sdc_plan plan(config);
    EXPECT_FALSE(plan.on_execution().has_value()); // opportunity 1
    EXPECT_FALSE(plan.on_execution().has_value()); // 2
    const auto fired = plan.on_execution();        // 3
    ASSERT_TRUE(fired.has_value());
    EXPECT_EQ(fired->site, sdc_site::vmin_flip);
    EXPECT_EQ(fired->param, 11u);
    EXPECT_EQ(plan.injected(), 1u);
    for (int i = 0; i < 16; ++i) {
        EXPECT_FALSE(plan.on_execution().has_value()); // one-shot
    }
    EXPECT_EQ(plan.injected(), 1u);
}

TEST(sdc_plan_test, auto_param_is_seed_deterministic) {
    const auto draw = [](std::uint64_t seed) {
        sdc_plan_config config;
        config.seed = seed;
        config.triggers.push_back({sdc_site::power_scale, 2,
                                   sdc_trigger::param_auto});
        sdc_plan plan(config);
        (void)plan.on_execution();
        const auto fired = plan.on_execution();
        EXPECT_TRUE(fired.has_value());
        return fired->param;
    };
    EXPECT_EQ(draw(42), draw(42)); // reproducible
    EXPECT_NE(draw(42), draw(43)); // seed-separated
}

TEST(sdc_plan_test, multiple_triggers_fire_independently) {
    sdc_plan_config config;
    config.triggers.push_back({sdc_site::weak_drop, 1, 0});
    config.triggers.push_back({sdc_site::weak_phantom, 4, 0});
    sdc_plan plan(config);
    ASSERT_TRUE(plan.on_execution().has_value());
    EXPECT_FALSE(plan.on_execution().has_value());
    EXPECT_FALSE(plan.on_execution().has_value());
    const auto second = plan.on_execution();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->site, sdc_site::weak_phantom);
    EXPECT_EQ(plan.injected(), 2u);
}

// --- corruption appliers -------------------------------------------------

TEST(sdc_plan_test, corrupt_vmin_always_changes_and_stays_finite) {
    for (std::uint64_t param = 0; param < 64; ++param) {
        const double corrupted = sdc_plan::corrupt_vmin(912.5, param);
        EXPECT_NE(corrupted, 912.5) << "param " << param;
        EXPECT_TRUE(std::isfinite(corrupted)) << "param " << param;
    }
}

TEST(sdc_plan_test, corrupt_weak_cells_never_returns_the_truth) {
    for (std::uint64_t param = 0; param < 8; ++param) {
        for (const long long count : {0LL, 1LL, 17LL}) {
            const long long dropped = sdc_plan::corrupt_weak_cells(
                count, sdc_site::weak_drop, param);
            const long long invented = sdc_plan::corrupt_weak_cells(
                count, sdc_site::weak_phantom, param);
            EXPECT_LT(dropped, count);
            EXPECT_GT(invented, count);
        }
    }
}

TEST(sdc_plan_test, corrupt_power_scales_by_a_few_permille) {
    for (std::uint64_t param = 0; param < 200; ++param) {
        const double corrupted = sdc_plan::corrupt_power(14.5, param);
        EXPECT_NE(corrupted, 14.5) << "param " << param;
        const double relative = std::abs(corrupted / 14.5 - 1.0);
        EXPECT_GT(relative, 0.0005) << "param " << param;
        EXPECT_LT(relative, 0.1005) << "param " << param;
    }
}

// --- spec parsing --------------------------------------------------------

TEST(sdc_spec_test, parses_sites_opportunities_and_params) {
    sdc_plan_config config;
    std::string error;
    ASSERT_TRUE(parse_sdc_spec("vmin_flip@5,power_scale@12/37,weak_drop@2",
                               config, error))
        << error;
    ASSERT_EQ(config.triggers.size(), 3u);
    EXPECT_EQ(config.triggers[0].site, sdc_site::vmin_flip);
    EXPECT_EQ(config.triggers[0].at, 5u);
    EXPECT_EQ(config.triggers[0].param, sdc_trigger::param_auto);
    EXPECT_EQ(config.triggers[1].site, sdc_site::power_scale);
    EXPECT_EQ(config.triggers[1].at, 12u);
    EXPECT_EQ(config.triggers[1].param, 37u);
    EXPECT_EQ(config.triggers[2].site, sdc_site::weak_drop);
}

TEST(sdc_spec_test, empty_spec_is_no_triggers) {
    sdc_plan_config config;
    std::string error;
    ASSERT_TRUE(parse_sdc_spec("", config, error));
    EXPECT_TRUE(config.triggers.empty());
}

TEST(sdc_spec_test, diagnostics_quote_the_offending_token) {
    const auto error_for = [](std::string_view spec) {
        sdc_plan_config config;
        std::string error;
        EXPECT_FALSE(parse_sdc_spec(spec, config, error)) << spec;
        return error;
    };
    EXPECT_EQ(error_for("vmin_flip@1,,weak_drop@2"),
              "empty sdc trigger in spec 'vmin_flip@1,,weak_drop@2'");
    EXPECT_EQ(error_for("vmin_flip"),
              "sdc trigger 'vmin_flip' wants site@at[/param]");
    EXPECT_EQ(error_for("refresh@3"),
              "sdc trigger 'refresh@3': unknown sdc site 'refresh'");
    EXPECT_EQ(error_for("vmin_flip@zero"),
              "sdc trigger 'vmin_flip@zero' wants a positive integer "
              "after '@'");
    EXPECT_EQ(error_for("vmin_flip@0"),
              "sdc trigger 'vmin_flip@0' wants a positive integer "
              "after '@'");
    EXPECT_EQ(error_for("vmin_flip@3/x"),
              "sdc trigger 'vmin_flip@3/x' wants an integer parameter "
              "after '/'");
}

TEST(sdc_spec_test, site_names_round_trip) {
    for (const sdc_site site :
         {sdc_site::vmin_flip, sdc_site::weak_drop, sdc_site::weak_phantom,
          sdc_site::power_scale}) {
        sdc_site parsed = sdc_site::vmin_flip;
        ASSERT_TRUE(sdc_site_from_string(to_string(site), parsed));
        EXPECT_EQ(parsed, site);
    }
    sdc_site parsed;
    EXPECT_FALSE(sdc_site_from_string("bogus", parsed));
}

// --- hash chain ----------------------------------------------------------

TEST(integrity_chain_test, chain_is_order_and_content_sensitive) {
    const std::uint64_t ab =
        chain_next(chain_next(chain_basis, "alpha"), "beta");
    EXPECT_EQ(ab, chain_next(chain_next(chain_basis, "alpha"), "beta"));
    EXPECT_NE(ab, chain_next(chain_next(chain_basis, "beta"), "alpha"));
    EXPECT_NE(ab, chain_next(chain_next(chain_basis, "alphx"), "beta"));
    // An edit to an *earlier* record changes every later link even when
    // the later payloads are identical -- the in-place tamper detector.
    EXPECT_NE(chain_next(chain_next(chain_basis, "a"), "tail"),
              chain_next(chain_next(chain_basis, "b"), "tail"));
}

TEST(integrity_chain_test, format_chain_is_16_hex_digits) {
    EXPECT_EQ(format_hex(0), "0000000000000000");
    EXPECT_EQ(format_hex(0xdeadbeef12345678ULL), "deadbeef12345678");
    EXPECT_EQ(format_hex(chain_basis).size(), 16u);
}

// --- rig model -----------------------------------------------------------

TEST(integrity_rig_test, assignment_is_content_pure_and_disjoint) {
    const std::uint64_t rigs = 8;
    for (std::uint64_t content = 1; content < 50; ++content) {
        std::set<std::uint64_t> seen;
        for (int r = 0; r < 3; ++r) {
            const std::uint64_t rig = rig_for(2018, content, r, rigs);
            EXPECT_LT(rig, rigs);
            EXPECT_EQ(rig, rig_for(2018, content, r, rigs));
            seen.insert(rig);
        }
        EXPECT_EQ(seen.size(), 3u) << "content " << content;
    }
    // Seed separation: a different seed reshuffles the assignment map
    // (single contents may collide mod 8, the whole map must not).
    int moved = 0;
    for (std::uint64_t content = 1; content < 50; ++content) {
        moved += rig_for(2018, content, 0, rigs) !=
                 rig_for(2019, content, 0, rigs);
    }
    EXPECT_GT(moved, 20);
}

// --- quorum vote ---------------------------------------------------------

TEST(integrity_vote_test, unanimous_majority_and_stalemate) {
    const auto tally_of = [](const std::vector<int>& values) {
        return vote(values.size(), [&](std::size_t a, std::size_t b) {
            return values[a] == values[b];
        });
    };
    const quorum_tally unanimous = tally_of({5, 5, 5});
    EXPECT_TRUE(unanimous.decided);
    EXPECT_EQ(unanimous.winner, 0u);
    EXPECT_TRUE(unanimous.dissenters.empty());

    const quorum_tally outvoted = tally_of({5, 9, 5});
    EXPECT_TRUE(outvoted.decided);
    EXPECT_EQ(outvoted.winner, 0u);
    ASSERT_EQ(outvoted.dissenters.size(), 1u);
    EXPECT_EQ(outvoted.dissenters[0], 1u);

    // 1-of-1 is a majority (the legacy undefended pipeline).
    EXPECT_TRUE(tally_of({3}).decided);

    // Even split: no strict majority, nobody blamed.
    const quorum_tally split = tally_of({5, 9});
    EXPECT_FALSE(split.decided);
    EXPECT_TRUE(split.dissenters.empty());

    // Three-way disagreement: 1 < 2 of 3.
    EXPECT_FALSE(tally_of({1, 2, 3}).decided);
    EXPECT_FALSE(tally_of({}).decided);
}

TEST(integrity_vote_test, winner_is_first_class_reaching_best_count) {
    const std::vector<int> values = {9, 5, 5, 9, 7};
    const quorum_tally tally =
        vote(values.size(), [&](std::size_t a, std::size_t b) {
            return values[a] == values[b];
        });
    // 9 and 5 tie at two votes each: no strict majority of 5.
    EXPECT_FALSE(tally.decided);
    const std::vector<int> majority = {9, 5, 5, 9, 5};
    const quorum_tally tally2 =
        vote(majority.size(), [&](std::size_t a, std::size_t b) {
            return majority[a] == majority[b];
        });
    EXPECT_TRUE(tally2.decided);
    EXPECT_EQ(tally2.winner, 1u); // smallest index in the winning class
    EXPECT_EQ(tally2.dissenters, (std::vector<std::size_t>{0, 3}));
}

// --- rig reputation ------------------------------------------------------

TEST(integrity_reputation_test, blacklists_exactly_at_threshold) {
    rig_reputation reputation(rig_reputation_config{2});
    EXPECT_FALSE(reputation.blacklisted(4));
    EXPECT_FALSE(reputation.record_dissent(4)); // 1 of 2
    EXPECT_FALSE(reputation.blacklisted(4));
    EXPECT_TRUE(reputation.record_dissent(4)); // crosses the threshold
    EXPECT_TRUE(reputation.blacklisted(4));
    EXPECT_FALSE(reputation.record_dissent(4)); // already blacklisted
    EXPECT_TRUE(reputation.blacklisted(4));
    EXPECT_EQ(reputation.dissents(), 3u);
    EXPECT_EQ(reputation.blacklisted_count(), 1u);
    EXPECT_FALSE(reputation.blacklisted(5)); // per-rig ledger
}

} // namespace
} // namespace gb
