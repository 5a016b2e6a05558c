// Differential-equivalence harness for the optimized hot-path kernels.
//
// Every throughput rewrite in the pipeline / DRAM / chip-evaluation layers
// keeps a retained reference twin (the pre-optimization code path) as a
// file-local function below, written against the public API.
// This suite drives both sides over seeded randomized inputs -- including the
// degenerate corners (length 0/1, odd lengths, batch widths 1..8) -- and
// requires *bitwise* equality: doubles are compared by bit pattern and
// reported via std::to_chars shortest round-trip form, so even a 1-ulp
// divergence fails loudly.  The campaign-level invariant (content.hash
// stability across GB_JOBS) rests on these identities.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "chip/chip_model.hpp"
#include "chip/corners.hpp"
#include "dram/memory_system.hpp"
#include "dram/patterns.hpp"
#include "dram/retention.hpp"
#include "dram/topology.hpp"
#include "ecc/secded.hpp"
#include "harness/framework.hpp"
#include "isa/kernel.hpp"
#include "isa/pipeline.hpp"
#include "pdn/pdn.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace gb {
namespace {

/// Shortest round-trip decimal form of a double: injective on bit patterns
/// (up to the sign of zero, which the bit comparison below still catches).
std::string exact(double x) {
    std::array<char, 64> buf{};
    const auto [ptr, ec] = std::to_chars(buf.data(),
                                         buf.data() + buf.size(), x);
    return ec == std::errc{} ? std::string(buf.data(), ptr)
                             : std::string("?");
}

::testing::AssertionResult bit_equal(double a, double b) {
    if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
        return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << exact(a) << " != " << exact(b) << " (bits 0x" << std::hex
           << std::bit_cast<std::uint64_t>(a) << " vs 0x"
           << std::bit_cast<std::uint64_t>(b) << ")";
}

::testing::AssertionResult traces_bit_equal(const std::vector<double>& a,
                                            const std::vector<double>& b) {
    if (a.size() != b.size()) {
        return ::testing::AssertionFailure()
               << "length " << a.size() << " != " << b.size();
    }
    for (std::size_t k = 0; k < a.size(); ++k) {
        if (std::bit_cast<std::uint64_t>(a[k]) !=
            std::bit_cast<std::uint64_t>(b[k])) {
            return ::testing::AssertionFailure()
                   << "index " << k << ": " << exact(a[k])
                   << " != " << exact(b[k]);
        }
    }
    return ::testing::AssertionSuccess();
}

pdn_model random_pdn(rng& r) {
    const pdn_parameters params = pdn_parameters::for_resonance(
        r.uniform(20.0e6, 80.0e6), r.uniform(0.05, 0.30),
        r.uniform(0.2e-6, 2.0e-6));
    return pdn_model(params, millivolts{r.uniform(900.0, 1000.0)},
                     nominal_core_frequency);
}

kernel random_kernel(rng& r, std::size_t length) {
    kernel k;
    k.name = "random";
    const std::span<const opcode> ops = all_opcodes();
    for (std::size_t i = 0; i < length; ++i) {
        k.body.push_back(ops[r.uniform_index(ops.size())]);
    }
    return k;
}

// ---------------------------------------------------------------------------
// PDN worst_droop.  Its hand-hoisted twin bought no speed and is retired;
// the step()-per-cycle loop is the kernel, pinned here at its corners.

TEST(worst_droop_equivalence, constant_and_spike_corners) {
    rng r(7);
    const pdn_model model = random_pdn(r);
    const double ohm = model.parameters().resistance_ohm;
    // Constant current: no dynamic droop, only the static IR drop.
    std::vector<double> flat(777, 1.25);
    EXPECT_NEAR(model.worst_droop(flat).value, ohm * 1.25 * 1000.0, 1e-9);
    // A single huge spike in an otherwise idle trace rings the PDN below
    // the IR drop of the trace's mean current.
    std::vector<double> spike(4096, 0.1);
    spike[1234] = 50.0;
    const double mean = (4095 * 0.1 + 50.0) / 4096.0;
    EXPECT_GT(model.worst_droop(spike).value, ohm * mean * 1000.0);
}

TEST(worst_droop_equivalence, empty_trace_rejected_by_both) {
    rng r(11);
    const pdn_model model = random_pdn(r);
    const std::vector<double> empty;
    EXPECT_THROW((void)model.worst_droop(empty), contract_violation);
}

// ---------------------------------------------------------------------------
// Pipeline execute: one-iteration tiling vs cycle-by-cycle reference.

/// The cycle-by-cycle walk pipeline_model::execute tiles: one simulated
/// cycle per output cycle (the pre-optimization code path).
execution_profile execute_reference(const pipeline_model& pipeline,
                                    const kernel& k,
                                    std::uint64_t min_cycles) {
    GB_EXPECTS(!k.empty());
    GB_EXPECTS(min_cycles > 0);

    execution_profile profile;
    auto& counters = profile.counters;
    std::array<std::uint64_t, cpu_component_count> active_cycles{};

    const double cycle_ns =
        1.0e3 / pipeline.clock().value; // MHz -> ns per cycle
    // Generous upper bound so reserve covers stalls.
    profile.current_trace.reserve(min_cycles + 4096);

    while (counters.cycles < min_cycles) {
        for (const opcode op : k.body) {
            const op_traits& t = traits_of(op);

            // Issue cycle.
            profile.current_trace.push_back(core_baseline_current_a +
                                            t.issue_current_a);
            ++counters.cycles;
            ++counters.instructions;
            active_cycles[static_cast<std::size_t>(
                cpu_component::fetch)] += 1;
            if (t.component != cpu_component::none &&
                t.component != cpu_component::fetch) {
                active_cycles[static_cast<std::size_t>(t.component)] += 1;
            }

            if (t.is_fp) {
                ++counters.fp_ops;
            } else if (op == opcode::int_alu || op == opcode::int_mul) {
                ++counters.int_ops;
            }
            if (op == opcode::branch) {
                ++counters.branches;
            }
            if (t.is_load) {
                ++counters.loads;
            }
            if (t.is_store) {
                ++counters.stores;
            }
            if (t.component == cpu_component::l2) {
                ++counters.l2_hits;
            }
            if (t.component == cpu_component::l3) {
                ++counters.l3_hits;
            }
            if (t.component == cpu_component::dram) {
                ++counters.dram_accesses;
            }
            counters.memory_bytes +=
                static_cast<std::uint64_t>(t.memory_bytes);

            // Stall cycles: fixed-cycle stalls (cache misses, dividers) plus
            // wall-clock memory latency converted at the current frequency.
            std::uint64_t stalls = static_cast<std::uint64_t>(t.stall_cycles);
            if (t.memory_latency_ns > 0.0) {
                stalls += static_cast<std::uint64_t>(
                    std::ceil(t.memory_latency_ns / cycle_ns));
            }
            for (std::uint64_t s = 0; s < stalls; ++s) {
                profile.current_trace.push_back(core_baseline_current_a +
                                                t.stall_current_a);
                ++counters.cycles;
                if (t.component != cpu_component::none) {
                    active_cycles[static_cast<std::size_t>(t.component)] += 1;
                }
            }
        }
    }

    for (std::size_t c = 0; c < active_cycles.size(); ++c) {
        profile.activity.utilization[c] =
            static_cast<double>(active_cycles[c]) /
            static_cast<double>(counters.cycles);
    }
    GB_ENSURES(profile.current_trace.size() == counters.cycles);
    return profile;
}

void expect_profiles_bit_equal(const execution_profile& fast,
                               const execution_profile& slow) {
    EXPECT_EQ(fast.counters.cycles, slow.counters.cycles);
    EXPECT_EQ(fast.counters.instructions, slow.counters.instructions);
    EXPECT_EQ(fast.counters.int_ops, slow.counters.int_ops);
    EXPECT_EQ(fast.counters.fp_ops, slow.counters.fp_ops);
    EXPECT_EQ(fast.counters.branches, slow.counters.branches);
    EXPECT_EQ(fast.counters.loads, slow.counters.loads);
    EXPECT_EQ(fast.counters.stores, slow.counters.stores);
    EXPECT_EQ(fast.counters.l2_hits, slow.counters.l2_hits);
    EXPECT_EQ(fast.counters.l3_hits, slow.counters.l3_hits);
    EXPECT_EQ(fast.counters.dram_accesses, slow.counters.dram_accesses);
    EXPECT_EQ(fast.counters.memory_bytes, slow.counters.memory_bytes);
    for (std::size_t c = 0; c < cpu_component_count; ++c) {
        EXPECT_TRUE(bit_equal(fast.activity.utilization[c],
                              slow.activity.utilization[c]))
            << "component " << c;
    }
    EXPECT_TRUE(traces_bit_equal(fast.current_trace, slow.current_trace));
}

TEST(pipeline_equivalence, randomized_kernels_bitwise) {
    rng r(0x100ULL);
    const std::uint64_t cycle_targets[] = {1, 2, 3, 17, 100, 1001, 8192};
    for (int round = 0; round < 24; ++round) {
        const kernel k = random_kernel(r, 1 + r.uniform_index(32));
        const pipeline_model pipeline(
            megahertz{r.uniform(300.0, 2400.0)});
        const std::uint64_t min_cycles =
            cycle_targets[r.uniform_index(std::size(cycle_targets))];
        expect_profiles_bit_equal(pipeline.execute(k, min_cycles),
                                  execute_reference(pipeline, k, min_cycles));
    }
}

TEST(pipeline_equivalence, component_viruses_and_suite_shapes) {
    const pipeline_model pipeline(nominal_core_frequency);
    for (const kernel& k : all_component_viruses()) {
        expect_profiles_bit_equal(pipeline.execute(k, 8192),
                                  execute_reference(pipeline, k, 8192));
    }
    const kernel square = make_square_wave_kernel(24, 24);
    expect_profiles_bit_equal(pipeline.execute(square, 8191),
                              execute_reference(pipeline, square, 8191));
}

TEST(pipeline_equivalence, rejects_degenerate_inputs_identically) {
    const pipeline_model pipeline(nominal_core_frequency);
    const kernel empty{"empty", {}};
    const kernel one{"one", {opcode::int_alu}};
    EXPECT_THROW((void)pipeline.execute(empty, 100), contract_violation);
    EXPECT_THROW((void)execute_reference(pipeline, empty, 100),
                 contract_violation);
    EXPECT_THROW((void)pipeline.execute(one, 0), contract_violation);
    EXPECT_THROW((void)execute_reference(pipeline, one, 0),
                 contract_violation);
}

// ---------------------------------------------------------------------------
// Chip-level trace aggregation and batched evaluation.

/// chip_model::combined_trace with per-cycle modulo indexing (the
/// pre-optimization code path).
std::vector<double> combined_trace_reference(
    std::span<const core_assignment> assignments, std::uint64_t phase_seed) {
    GB_EXPECTS(!assignments.empty());
    GB_EXPECTS(assignments.size() <=
               static_cast<std::size_t>(cores_per_chip));

    std::size_t length = 8192;
    for (const core_assignment& a : assignments) {
        GB_EXPECTS(a.profile != nullptr);
        GB_EXPECTS(!a.profile->current_trace.empty());
        GB_EXPECTS(a.core >= 0 && a.core < cores_per_chip);
        length = std::max(length, a.profile->current_trace.size());
    }

    std::vector<double> total(length, 0.0);
    rng phase_rng(phase_seed);
    for (const core_assignment& a : assignments) {
        const std::vector<double>& trace = a.profile->current_trace;
        const std::size_t offset = phase_rng.uniform_index(trace.size());
        for (std::size_t k = 0; k < length; ++k) {
            total[k] += trace[(k + offset) % trace.size()];
        }
    }
    const int idle_cores =
        cores_per_chip - static_cast<int>(assignments.size());
    for (double& i : total) {
        i += static_cast<double>(idle_cores) * core_baseline_current_a;
    }
    return total;
}

class chip_equivalence_test : public ::testing::Test {
protected:
    chip_model chip_{make_ttt_chip(), make_xgene2_pdn()};
    pipeline_model pipeline_{nominal_core_frequency};
};

TEST_F(chip_equivalence_test, combined_trace_all_batch_widths_bitwise) {
    rng r(0x42ULL);
    // Distinct per-core profiles with deliberately uneven trace lengths so
    // the wrapped cursor exercises mid-trace starts and wrap-arounds.
    std::vector<execution_profile> profiles;
    for (int c = 0; c < cores_per_chip; ++c) {
        profiles.push_back(pipeline_.execute(
            random_kernel(r, 1 + r.uniform_index(24)),
            4096 + r.uniform_index(8192)));
    }
    for (std::size_t width = 1; width <= 8; ++width) {
        std::vector<core_assignment> assignments;
        for (std::size_t c = 0; c < width; ++c) {
            assignments.push_back({static_cast<int>(c), &profiles[c],
                                   nominal_core_frequency});
        }
        for (int round = 0; round < 4; ++round) {
            const std::uint64_t phase_seed = r();
            EXPECT_TRUE(traces_bit_equal(
                chip_.combined_trace(assignments, phase_seed),
                combined_trace_reference(assignments, phase_seed)))
                << "width " << width;
        }
    }
}

TEST_F(chip_equivalence_test, evaluate_at_matches_evaluate_run_bitwise) {
    rng r(0x1234ULL);
    const execution_profile profile =
        pipeline_.execute(make_square_wave_kernel(24, 24), 8192);
    for (std::size_t width = 1; width <= 8; ++width) {
        std::vector<core_assignment> assignments;
        for (std::size_t c = 0; c < width; ++c) {
            assignments.push_back({static_cast<int>(c), &profile,
                                   nominal_core_frequency});
        }
        const std::uint64_t phase_seed = 99 + width;
        // Batched form: one analysis serves the whole candidate ladder.
        const vmin_analysis analysis =
            chip_.analyze(assignments, phase_seed);
        for (millivolts v{980.0}; v.value > 850.0; v -= millivolts{5.0}) {
            const std::uint64_t run_seed = r();
            rng unbatched(run_seed);
            rng batched(run_seed);
            const run_evaluation a =
                chip_.evaluate_run(assignments, v, phase_seed, unbatched);
            const run_evaluation b = chip_.evaluate_at(analysis, v, batched);
            EXPECT_EQ(a.outcome, b.outcome);
            EXPECT_EQ(a.path, b.path);
            EXPECT_TRUE(bit_equal(a.margin.value, b.margin.value));
            // The two must consume identical RNG sequences, or batching
            // would shift every downstream draw.
            EXPECT_EQ(unbatched(), batched());
        }
    }
}

TEST_F(chip_equivalence_test, outcome_probabilities_at_matches_unbatched) {
    const execution_profile profile =
        pipeline_.execute(make_component_virus(cpu_component::l1d), 8192);
    std::vector<core_assignment> assignments{
        {3, &profile, nominal_core_frequency}};
    const vmin_analysis analysis = chip_.analyze(assignments, 5);
    for (millivolts v{980.0}; v.value > 880.0; v -= millivolts{2.5}) {
        const outcome_distribution a =
            chip_.outcome_probabilities(assignments, v, 5);
        const outcome_distribution b =
            chip_.outcome_probabilities_at(analysis, v);
        EXPECT_TRUE(bit_equal(a.p_ok, b.p_ok));
        EXPECT_TRUE(bit_equal(a.p_corrected, b.p_corrected));
        EXPECT_TRUE(bit_equal(a.p_uncorrectable, b.p_uncorrectable));
        EXPECT_TRUE(bit_equal(a.p_sdc, b.p_sdc));
        EXPECT_TRUE(bit_equal(a.p_crash, b.p_crash));
        EXPECT_TRUE(bit_equal(a.p_hang, b.p_hang));
    }
}

TEST_F(chip_equivalence_test, find_vmin_identical_across_worker_counts) {
    const kernel loop = make_square_wave_kernel(16, 16);
    std::vector<millivolts> results;
    for (const int workers : {1, 2, 8}) {
        characterization_framework framework(chip_, 2024);
        results.push_back(framework.find_vmin(loop, {0, 1, 2, 3},
                                              nominal_core_frequency,
                                              /*repetitions=*/3,
                                              millivolts{5.0}, workers));
    }
    EXPECT_TRUE(bit_equal(results[0].value, results[1].value));
    EXPECT_TRUE(bit_equal(results[0].value, results[2].value));
}

// ---------------------------------------------------------------------------
// DRAM retention: hoisted temperature factor vs per-cell recomputation, and
// the optimized DPBench scan (retention-floor skip, integer-keyed ECC
// grouping, byte-sliced check bits) vs a scan that evaluates every cell.

TEST(retention_equivalence, scaled_fast_path_bitwise) {
    rng r(0x77ULL);
    const retention_model model;
    for (int round = 0; round < 256; ++round) {
        weak_cell cell;
        cell.retention_at_reference_s =
            static_cast<float>(r.uniform(0.01, 3000.0));
        cell.dpd_strength = static_cast<float>(r.uniform(0.0, 0.15));
        const celsius t{r.uniform(40.0, 60.0)};
        const double aggression = r.uniform(0.0, 1.0);
        EXPECT_TRUE(bit_equal(
            cell.retention_seconds(model, t, aggression),
            cell.retention_seconds_scaled(model.temperature_factor(t),
                                          aggression)));
    }
}

/// Retention of `cell` during one scan at DIMM temperature `t`: the per-cell
/// temperature_factor recomputation plus the VRT cell's per-scan
/// strong/weak state draw.
double reference_scan_retention_seconds(const retention_model& model,
                                        const weak_cell& cell, celsius t,
                                        double aggression,
                                        std::uint64_t scan_seed) {
    double retention = cell.retention_seconds(model, t, aggression);
    if (cell.vrt) {
        std::uint64_t h = cell_key(cell.address) ^ scan_seed ^
                          0x5bf03635de1d1a27ULL;
        const double u =
            static_cast<double>(splitmix64(h) >> 11) * 0x1.0p-53;
        if (u >= model.vrt_weak_probability) {
            retention *= model.vrt_strong_ratio;
        }
    }
    return retention;
}

/// The pointer-sorted ECC pass: failing cells ordered by a comparator on
/// their codeword keys, then grouped and run through the real SECDED codec.
void reference_apply_ecc(std::vector<const weak_cell*>& failures,
                         std::uint64_t data_seed, scan_result& result) {
    std::sort(failures.begin(), failures.end(),
              [](const weak_cell* a, const weak_cell* b) {
                  return codeword_key(codeword_of(a->address)) <
                         codeword_key(codeword_of(b->address));
              });

    const secded72_64& codec = secded72_64::instance();
    std::size_t i = 0;
    while (i < failures.size()) {
        std::size_t j = i + 1;
        const std::uint64_t word_key =
            codeword_key(codeword_of(failures[i]->address));
        while (j < failures.size() &&
               codeword_key(codeword_of(failures[j]->address)) == word_key) {
            ++j;
        }

        ++result.affected_words;
        std::uint64_t mixer = word_key ^ data_seed;
        const std::uint64_t golden = splitmix64(mixer);
        secded_word stored = codec.encode(golden);
        for (std::size_t k = i; k < j; ++k) {
            stored = flip_codeword_bit(stored,
                                       codeword_bit_of(failures[k]->address));
        }
        switch (classify_decode(codec.decode(stored), golden)) {
        case word_outcome::corrected:
            ++result.ce_words;
            break;
        case word_outcome::uncorrectable:
            ++result.ue_words;
            break;
        case word_outcome::clean:
        case word_outcome::silent_corruption:
            ++result.sdc_words;
            break;
        }
        i = j;
    }
}

/// Reference DPBench scan: every materialized cell is evaluated (no
/// retention-floor skip), with the per-cell temperature factor and the
/// pointer-sorted ECC pass.
scan_result run_dpbench_reference(const memory_system& memory,
                                  data_pattern pattern,
                                  std::uint64_t pattern_seed,
                                  milliseconds refresh_period) {
    const dram_geometry& geometry = memory.geometry();
    scan_result result;
    result.scanned_bits = geometry.data_bytes() * 8;

    std::vector<const weak_cell*> failures;
    for (int dimm = 0; dimm < geometry.dimms; ++dimm) {
        const celsius t = memory.dimm_temperature(dimm);
        for (int rank = 0; rank < geometry.ranks_per_dimm; ++rank) {
            for (int chip = 0; chip < geometry.chips_per_rank(); ++chip) {
                for (int bank = 0; bank < geometry.banks_per_chip; ++bank) {
                    for (const weak_cell& cell :
                         memory.bank_cells(dimm, rank, chip, bank)) {
                        const pattern_stress stress =
                            stress_of(pattern, cell, pattern_seed);
                        if (!stress.vulnerable) {
                            continue;
                        }
                        if (reference_scan_retention_seconds(
                                memory.model(), cell, t, stress.aggression,
                                pattern_seed) < refresh_period.seconds()) {
                            failures.push_back(&cell);
                            ++result.per_bank_failures[static_cast<
                                std::size_t>(bank)];
                        }
                    }
                }
            }
        }
    }
    result.failed_cells = failures.size();
    reference_apply_ecc(failures, pattern_seed, result);
    return result;
}

TEST(retention_equivalence, dpbench_scan_matches_reference) {
    for (const double vrt_fraction : {0.0, 0.3}) {
        retention_model model;
        model.vrt_fraction = vrt_fraction;
        memory_system memory(xgene2_memory_geometry(), model, 2018,
                             study_limits{});
        // Heterogeneous DIMM temperatures so the hoisted per-DIMM factor
        // and the per-DIMM retention floor take distinct values.
        for (int dimm = 0; dimm < memory.geometry().dimms; ++dimm) {
            memory.set_dimm_temperature(
                dimm, celsius{50.0 + static_cast<double>(dimm % 4) * 3.0});
        }
        for (const double period_ms : {64.0, 500.0, 1300.0, 2283.0}) {
            for (const data_pattern pattern : all_data_patterns()) {
                SCOPED_TRACE(::testing::Message()
                             << "vrt " << vrt_fraction << ", " << period_ms
                             << " ms, " << to_string(pattern));
                const scan_result fast = memory.run_dpbench(
                    pattern, 17, milliseconds{period_ms});
                const scan_result slow = run_dpbench_reference(
                    memory, pattern, 17, milliseconds{period_ms});
                EXPECT_EQ(fast.failed_cells, slow.failed_cells);
                EXPECT_EQ(fast.affected_words, slow.affected_words);
                EXPECT_EQ(fast.ce_words, slow.ce_words);
                EXPECT_EQ(fast.ue_words, slow.ue_words);
                EXPECT_EQ(fast.sdc_words, slow.sdc_words);
                EXPECT_EQ(fast.scanned_bits, slow.scanned_bits);
                EXPECT_EQ(fast.per_bank_failures, slow.per_bank_failures);
            }
        }
    }
}

} // namespace
} // namespace gb
