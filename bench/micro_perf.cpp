// google-benchmark micro-benchmarks of the library's hot paths: the SECDED
// codec, the PDN integrator, the pipeline executor, the EM probe, DPBench
// scans, one GA generation, and the parallel campaign execution engine
// (dispatch overhead and worker scaling).
//
// The optimized kernels' reference twins (execute, combined_trace and
// run_dpbench as the pre-optimization code paths) are local to
// kernel_equivalence_test, which holds them bitwise equal; they are not
// timed here.  With `--baseline <dir>` (or GB_UPDATE_BASELINE) the binary
// skips google-benchmark and runs a fixed reporter suite instead, emitting
// BENCH_micro_kernels.json for the CI perf gate: wall medians per kernel,
// a batched-vs-unbatched evaluation width sweep, and a content hash over
// the kernels' outputs.
#include <benchmark/benchmark.h>

#include <atomic>
#include <bit>
#include <cstdint>

#include "chip/chip_model.hpp"
#include "dram/memory_system.hpp"
#include "ecc/secded.hpp"
#include "em/em_probe.hpp"
#include "ga/virus_search.hpp"
#include "harness/execution_engine.hpp"
#include "harness/framework.hpp"
#include "harness/trace/metrics.hpp"
#include "harness/trace/trace.hpp"
#include "bench_util.hpp"
#include "isa/pipeline.hpp"
#include "pdn/pdn.hpp"
#include "util/rng.hpp"
#include "workloads/cpu_profiles.hpp"

namespace {

using namespace gb;

void bm_secded_encode(benchmark::State& state) {
    const secded72_64& codec = secded72_64::instance();
    rng r(1);
    std::uint64_t data = r();
    for (auto _ : state) {
        benchmark::DoNotOptimize(codec.encode(data));
        data = data * 6364136223846793005ULL + 1;
    }
}
BENCHMARK(bm_secded_encode);

void bm_secded_decode_corrupted(benchmark::State& state) {
    const secded72_64& codec = secded72_64::instance();
    rng r(2);
    const secded_word word = flip_codeword_bit(codec.encode(r()), 17);
    for (auto _ : state) {
        benchmark::DoNotOptimize(codec.decode(word));
    }
}
BENCHMARK(bm_secded_decode_corrupted);

void bm_pdn_step(benchmark::State& state) {
    pdn_model model(make_xgene2_pdn(), nominal_pmd_voltage,
                    nominal_core_frequency);
    model.reset(amperes{4.0});
    double i = 4.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.step(amperes{i}));
        i = i > 4.0 ? 4.0 : 8.0;
    }
}
BENCHMARK(bm_pdn_step);

void bm_pdn_worst_droop(benchmark::State& state) {
    pdn_model model(make_xgene2_pdn(), nominal_pmd_voltage,
                    nominal_core_frequency);
    const pipeline_model pipeline(nominal_core_frequency);
    const execution_profile profile =
        pipeline.execute(make_square_wave_kernel(24, 24), 8192);
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.worst_droop(profile.current_trace));
    }
}
BENCHMARK(bm_pdn_worst_droop);

void bm_pipeline_execute(benchmark::State& state) {
    const pipeline_model pipeline(nominal_core_frequency);
    const kernel& loop = find_cpu_benchmark("milc").loop;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pipeline.execute(loop, 8192));
    }
}
BENCHMARK(bm_pipeline_execute);

void bm_combined_trace(benchmark::State& state) {
    chip_model ttt(make_ttt_chip(), make_xgene2_pdn());
    const pipeline_model pipeline(nominal_core_frequency);
    const execution_profile profile =
        pipeline.execute(find_cpu_benchmark("bwaves").loop, 8192);
    std::vector<core_assignment> all;
    for (int c = 0; c < static_cast<int>(state.range(0)); ++c) {
        all.push_back({c, &profile, nominal_core_frequency});
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(ttt.combined_trace(all, 7));
    }
}
BENCHMARK(bm_combined_trace)->Arg(1)->Arg(8);

// Batched ladder evaluation (one analyze() amortized over every (V, rep)
// cell) against the unbatched per-cell form it replaced in find_vmin.
void bm_evaluate_ladder_batched(benchmark::State& state) {
    chip_model ttt(make_ttt_chip(), make_xgene2_pdn());
    const pipeline_model pipeline(nominal_core_frequency);
    const execution_profile profile =
        pipeline.execute(find_cpu_benchmark("milc").loop, 8192);
    std::vector<core_assignment> all;
    for (int c = 0; c < static_cast<int>(state.range(0)); ++c) {
        all.push_back({c, &profile, nominal_core_frequency});
    }
    for (auto _ : state) {
        rng r(11);
        const vmin_analysis analysis = ttt.analyze(all, 7);
        for (int cell = 0; cell < 160; ++cell) {
            benchmark::DoNotOptimize(ttt.evaluate_at(
                analysis, millivolts{980.0 - 5.0 * (cell / 10)}, r));
        }
    }
    state.SetItemsProcessed(state.iterations() * 160);
}
BENCHMARK(bm_evaluate_ladder_batched)->Arg(1)->Arg(8);

void bm_evaluate_ladder_unbatched(benchmark::State& state) {
    chip_model ttt(make_ttt_chip(), make_xgene2_pdn());
    const pipeline_model pipeline(nominal_core_frequency);
    const execution_profile profile =
        pipeline.execute(find_cpu_benchmark("milc").loop, 8192);
    std::vector<core_assignment> all;
    for (int c = 0; c < static_cast<int>(state.range(0)); ++c) {
        all.push_back({c, &profile, nominal_core_frequency});
    }
    for (auto _ : state) {
        rng r(11);
        for (int cell = 0; cell < 160; ++cell) {
            benchmark::DoNotOptimize(ttt.evaluate_run(
                all, millivolts{980.0 - 5.0 * (cell / 10)}, 7, r));
        }
    }
    state.SetItemsProcessed(state.iterations() * 160);
}
BENCHMARK(bm_evaluate_ladder_unbatched)->Arg(1)->Arg(8);

void bm_em_probe(benchmark::State& state) {
    const pipeline_model pipeline(nominal_core_frequency);
    const em_probe probe(50.0e6, pipeline.clock());
    const execution_profile profile =
        pipeline.execute(make_square_wave_kernel(24, 24), 8192);
    for (auto _ : state) {
        benchmark::DoNotOptimize(probe.amplitude(profile.current_trace));
    }
}
BENCHMARK(bm_em_probe);

void bm_chip_vmin_analysis(benchmark::State& state) {
    chip_model ttt(make_ttt_chip(), make_xgene2_pdn());
    const pipeline_model pipeline(nominal_core_frequency);
    const execution_profile profile =
        pipeline.execute(find_cpu_benchmark("bwaves").loop, 8192);
    std::vector<core_assignment> all;
    for (int c = 0; c < 8; ++c) {
        all.push_back({c, &profile, nominal_core_frequency});
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(ttt.analyze(all, 7));
    }
}
BENCHMARK(bm_chip_vmin_analysis);

void bm_ga_generation(benchmark::State& state) {
    const pipeline_model pipeline(nominal_core_frequency);
    ga_config config;
    config.population_size = 32;
    config.generations = 1;
    for (auto _ : state) {
        rng r(7);
        benchmark::DoNotOptimize(
            evolve_didt_virus(pipeline, make_xgene2_pdn(), config, r, 96,
                              1024));
    }
}
BENCHMARK(bm_ga_generation);

void bm_memory_system_construction(benchmark::State& state) {
    for (auto _ : state) {
        memory_system memory(single_dimm_geometry(), retention_model{}, 2018,
                             study_limits{});
        benchmark::DoNotOptimize(memory.total_weak_cells());
    }
}
BENCHMARK(bm_memory_system_construction);

void bm_dpbench_scan(benchmark::State& state) {
    memory_system memory(xgene2_memory_geometry(), retention_model{}, 2018,
                         study_limits{});
    memory.set_temperature(celsius{60.0});
    memory.set_refresh_period(milliseconds{2283.0});
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            memory.run_dpbench(data_pattern::random_data, 2018));
    }
}
BENCHMARK(bm_dpbench_scan);

// Engine dispatch overhead: 1024 near-empty tasks through the pool.  The
// per-task cost (queue claim, seed derivation, histogram update) bounds how
// fine-grained campaign cells can be before scheduling dominates.
void bm_engine_dispatch(benchmark::State& state) {
    execution_options options;
    options.workers = static_cast<int>(state.range(0));
    const execution_engine engine(options);
    for (auto _ : state) {
        std::atomic<std::uint64_t> sink{0};
        engine.run(1024, [&](const task_context& ctx) {
            sink.fetch_add(ctx.seed, std::memory_order_relaxed);
            return -1;
        });
        benchmark::DoNotOptimize(sink.load());
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(bm_engine_dispatch)->Arg(1)->Arg(8);

// Worker scaling on a fixed CPU campaign (3 voltages x 10 repetitions x 8
// cores).  Compare the w1/w8 wall-clock ratio across commits to catch
// scheduler regressions; results are identical at every worker count.
void bm_engine_campaign(benchmark::State& state) {
    static chip_model ttt(make_ttt_chip(), make_xgene2_pdn());
    static characterization_framework framework(ttt, 2018);
    campaign_spec spec;
    spec.benchmark = "milc";
    spec.repetitions = 10;
    spec.workers = static_cast<int>(state.range(0));
    for (const double v : {980.0, 920.0, 880.0}) {
        characterization_setup setup;
        setup.voltage = millivolts{v};
        setup.cores = {0, 1, 2, 3, 4, 5, 6, 7};
        spec.setups.push_back(setup);
    }
    const kernel& loop = find_cpu_benchmark("milc").loop;
    for (auto _ : state) {
        benchmark::DoNotOptimize(framework.run_campaign(spec, loop));
    }
    state.SetItemsProcessed(state.iterations() * 30);
}
BENCHMARK(bm_engine_campaign)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

// Observability overhead: the same two engine loops with the tracer and
// metrics registry attached.  Compare against the untraced twins above --
// the budget is <= 3% per-task overhead (see docs/OBSERVABILITY.md for
// measured numbers).
void bm_engine_dispatch_traced(benchmark::State& state) {
    tracer trace;
    metrics_registry metrics;
    execution_options options;
    options.workers = static_cast<int>(state.range(0));
    options.trace = &trace;
    options.metrics = &metrics;
    const execution_engine engine(options);
    for (auto _ : state) {
        trace.clear();
        std::atomic<std::uint64_t> sink{0};
        engine.run(1024, [&](const task_context& ctx) {
            sink.fetch_add(ctx.seed, std::memory_order_relaxed);
            return -1;
        });
        benchmark::DoNotOptimize(sink.load());
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(bm_engine_dispatch_traced)->Arg(1)->Arg(8);

void bm_engine_campaign_traced(benchmark::State& state) {
    static chip_model ttt(make_ttt_chip(), make_xgene2_pdn());
    static characterization_framework framework(ttt, 2018);
    tracer trace;
    metrics_registry metrics;
    campaign_spec spec;
    spec.benchmark = "milc";
    spec.repetitions = 10;
    spec.workers = static_cast<int>(state.range(0));
    for (const double v : {980.0, 920.0, 880.0}) {
        characterization_setup setup;
        setup.voltage = millivolts{v};
        setup.cores = {0, 1, 2, 3, 4, 5, 6, 7};
        spec.setups.push_back(setup);
    }
    const kernel& loop = find_cpu_benchmark("milc").loop;
    campaign_io io;
    io.trace = &trace;
    io.metrics = &metrics;
    for (auto _ : state) {
        trace.clear();
        benchmark::DoNotOptimize(framework.run_campaign(spec, loop, io));
    }
    state.SetItemsProcessed(state.iterations() * 30);
}
BENCHMARK(bm_engine_campaign_traced)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Fixed reporter suite for the CI perf gate (BENCH_micro_kernels.json).
//
// Every kernel runs a fixed workload for a fixed repetition count, and the
// batched ladder evaluation runs next to the unbatched form it replaced, so
// the published wall medians compare directly.  Outputs are folded into
// content.hash: any drift in the kernels' results changes the hash and
// trips the zero-tolerance counter gate.

constexpr int baseline_repetitions = 5;

template <typename Fn>
void time_reps(bench::baseline_reporter& baseline, const std::string& label,
               int inner, Fn&& fn) {
    for (int rep = 0; rep < baseline_repetitions; ++rep) {
        baseline.time(label, [&] {
            for (int i = 0; i < inner; ++i) {
                fn();
            }
        });
    }
}

int run_baseline_suite(bench::baseline_reporter& baseline) {
    const pipeline_model pipeline(nominal_core_frequency);
    const execution_profile square =
        pipeline.execute(make_square_wave_kernel(24, 24), 8192);
    const kernel& milc = find_cpu_benchmark("milc").loop;

    // PDN convolution.  No twin: hand-hoisting its coefficients buys
    // nothing over the step() loop the compiler already optimizes.
    pdn_model pdn(make_xgene2_pdn(), nominal_pmd_voltage,
                  nominal_core_frequency);
    const millivolts droop = pdn.worst_droop(square.current_trace);
    baseline.fold(std::bit_cast<std::uint64_t>(droop.value));
    time_reps(baseline, "pdn_worst_droop", 100, [&] {
        benchmark::DoNotOptimize(pdn.worst_droop(square.current_trace));
    });

    // Pipeline trace generation.
    const execution_profile fast = pipeline.execute(milc, 8192);
    baseline.counter("pipeline.milc_cycles", fast.counters.cycles);
    baseline.fold(fast.counters.cycles);
    baseline.fold(fast.counters.instructions);
    time_reps(baseline, "pipeline_execute", 100, [&] {
        benchmark::DoNotOptimize(pipeline.execute(milc, 8192));
    });

    // Chip-level aggregation and the batched-ladder width sweep.
    chip_model ttt(make_ttt_chip(), make_xgene2_pdn());
    for (const int width : {1, 2, 4, 8}) {
        std::vector<core_assignment> cores;
        for (int c = 0; c < width; ++c) {
            cores.push_back({c, &fast, nominal_core_frequency});
        }
        const std::vector<double> combined = ttt.combined_trace(cores, 7);
        baseline.fold(std::bit_cast<std::uint64_t>(combined.back()));

        const std::string suffix = "_w" + std::to_string(width);
        time_reps(baseline, "evaluate_ladder_batched" + suffix, 2, [&] {
            rng r(11);
            const vmin_analysis analysis = ttt.analyze(cores, 7);
            for (int cell = 0; cell < 160; ++cell) {
                benchmark::DoNotOptimize(ttt.evaluate_at(
                    analysis, millivolts{980.0 - 5.0 * (cell / 10)}, r));
            }
        });
        time_reps(baseline, "evaluate_ladder_unbatched" + suffix, 2, [&] {
            rng r(11);
            for (int cell = 0; cell < 160; ++cell) {
                benchmark::DoNotOptimize(ttt.evaluate_run(
                    cores, millivolts{980.0 - 5.0 * (cell / 10)}, 7, r));
            }
        });
    }

    // DRAM scan (its reference twin lives in kernel_equivalence_test).
    memory_system memory(xgene2_memory_geometry(), retention_model{}, 2018,
                         study_limits{});
    memory.set_temperature(celsius{60.0});
    const scan_result scan =
        memory.run_dpbench(data_pattern::random_data, 2018,
                           milliseconds{2283.0});
    baseline.counter("dpbench.failed_cells", scan.failed_cells);
    baseline.fold(scan.failed_cells);
    baseline.fold(scan.ce_words);
    time_reps(baseline, "dpbench_scan", 3, [&] {
        benchmark::DoNotOptimize(memory.run_dpbench(
            data_pattern::random_data, 2018, milliseconds{2283.0}));
    });

    return baseline.emit() ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    gb::bench::baseline_reporter baseline(argc, argv, "micro_kernels");
    if (baseline.enabled()) {
        return run_baseline_suite(baseline);
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
