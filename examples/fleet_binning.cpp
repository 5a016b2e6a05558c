// Fleet binning: apply the characterization methodology to a fleet of
// randomly drawn chips and bin them into voltage classes (the deployment
// the UniServer project targets: each server runs at its own revealed safe
// point instead of the fleet-wide worst case).
//
// A thin client of the fleet service (fleet/service.hpp): the fleet is a
// `fleet_spec` of explicit unique-silicon nodes (every chip its own
// cohort variant), the per-chip methodology lives in the probe function,
// and the service runs the campaign through the execution engine, fans
// results out and keeps the deterministic observability artifacts.
//
//   $ ./fleet_binning [chips_per_corner] [options]
//     --trace <path>    deterministic Chrome trace (one task span per chip)
//     --metrics <path>  binning counters/histogram as flat JSON
//     --status <path>   live heartbeat while the fleet characterizes;
//                       the final snapshot is the service's fleet state
//                       (deterministic bytes, `gbreport status` renders it)
//     --fault-rate <r>  characterize through a hostile rig: uniform
//                       per-attempt fault rate (docs/ROBUSTNESS.md);
//                       chips whose probes never resolve are served
//                       degraded at the nominal bin and summarized
//     --replan <n>      backoff re-plan rounds before a chip degrades
//                       (default 2, only meaningful with --fault-rate)
//     --sdc <spec>      arm silent-data-corruption triggers
//                       (site@at[/param], see docs/ROBUSTNESS.md) and the
//                       quorum/audit defenses against them
//     --quorum <n>      replicas per probe (default: 3 with --sdc)
//     --audit <k>       re-verify every k-th scheduled cache hit
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chip/power.hpp"
#include "fleet/service.hpp"
#include "ga/virus_search.hpp"
#include "harness/fault_injection.hpp"
#include "harness/framework.hpp"
#include "harness/trace/metrics.hpp"
#include "harness/trace/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workloads/cpu_profiles.hpp"

using namespace gb;

int main(int argc, char** argv) {
    const std::optional<std::string> trace_path =
        take_flag_value(argc, argv, "--trace");
    const std::optional<std::string> metrics_path =
        take_flag_value(argc, argv, "--metrics");
    const std::optional<std::string> status_path =
        take_flag_value(argc, argv, "--status");
    const std::optional<double> fault_rate =
        ranged_flag(argc, argv, "--fault-rate", 0.0, 0.0, 0.9);
    const std::optional<long long> replan_rounds =
        ranged_flag(argc, argv, "--replan", 2LL, 0, 16);
    const std::optional<std::string> sdc_text =
        take_flag_value(argc, argv, "--sdc");
    std::optional<sdc_plan> sdc;
    if (sdc_text) {
        sdc_plan_config sdc_config;
        sdc_config.seed = 2024;
        std::string error;
        if (!parse_sdc_spec(*sdc_text, sdc_config, error)) {
            std::cerr << "fleet_binning: " << error << "\n";
            return 2;
        }
        sdc.emplace(std::move(sdc_config));
    }
    const std::optional<long long> quorum =
        ranged_flag(argc, argv, "--quorum", sdc ? 3LL : 1LL, 1, 15);
    if (!fault_rate || !replan_rounds || !quorum) {
        return 2;
    }
    const std::optional<long long> audit_stride =
        ranged_flag(argc, argv, "--audit", (sdc || *quorum > 1) ? 4LL : 0LL,
                    0, 1000000);
    if (!audit_stride) {
        return 2;
    }
    const int per_corner = static_cast<int>(
        int_arg(argc, argv, 1, 15, "chips_per_corner", 1, 1000));

    // One virus for the whole fleet (crafted once per micro-architecture).
    const pipeline_model pipeline(nominal_core_frequency);
    ga_config ga;
    ga.population_size = 96;
    ga.generations = 120;
    rng ga_rng(7);
    const virus_search_result virus =
        evolve_didt_virus(pipeline, make_xgene2_pdn(), ga, ga_rng);
    const execution_profile virus_profile =
        pipeline.execute(virus.virus, 8192);

    // The fleet: chips drawn corner-major from one sequential RNG (the
    // draw order is part of the fleet's identity), each its own cohort
    // variant -- unique silicon shares no probes.
    struct fleet_chip {
        chip_config config;
        std::uint64_t framework_seed = 0;
    };
    auto chips = std::make_shared<std::vector<fleet_chip>>();
    rng fleet_rng(2024);
    fleet::fleet_spec spec;
    spec.node_jitter_mv = 0.0; // requirements are per-chip exact
    for (const process_corner corner :
         {process_corner::ttt, process_corner::tff, process_corner::tss}) {
        for (int i = 0; i < per_corner; ++i) {
            chips->push_back(
                fleet_chip{random_chip(corner, fleet_rng),
                           500 + static_cast<std::uint64_t>(i)});
            fleet::fleet_node node;
            node.id = spec.explicit_nodes.size();
            node.cohort.corner = corner;
            node.cohort.variant =
                static_cast<std::uint32_t>(node.id) + 1;
            spec.explicit_nodes.push_back(node);
        }
    }

    // The per-chip methodology, as a probe: worst of (mix requirement,
    // virus requirement) plus a 10 mV deployment guard, and the PMD power
    // at nominal vs at the revealed bin.
    const std::vector<cpu_benchmark> mix = fig5_mix();
    const fleet::probe_fn probe =
        [chips, &virus_profile, &mix,
         &spec](const fleet::probe_request& request) {
            const fleet_chip& entry =
                (*chips)[request.cohort.variant - 1];
            const chip_model chip(entry.config, make_xgene2_pdn());
            characterization_framework framework(chip,
                                                 entry.framework_seed);
            std::vector<core_assignment> mix_assignments;
            std::vector<core_assignment> virus_assignments;
            for (int core = 0; core < cores_per_chip; ++core) {
                mix_assignments.push_back(core_assignment{
                    core,
                    &framework.profile_of(
                        mix[static_cast<std::size_t>(core)].loop,
                        nominal_core_frequency),
                    nominal_core_frequency});
                virus_assignments.push_back(core_assignment{
                    core, &virus_profile, nominal_core_frequency});
            }
            fleet::probe_result result;
            result.requirement_mv =
                std::max(chip.analyze(mix_assignments, 42).vmin.value,
                         chip.analyze(virus_assignments,
                                      hash_label("ga_didt_virus"))
                             .vmin.value) +
                10.0;
            const cpu_power_model power;
            result.power_nominal_w =
                power
                    .pmd_domain_power(chip.config(), mix_assignments,
                                      nominal_pmd_voltage, celsius{50.0})
                    .value;
            result.power_point_w =
                power
                    .pmd_domain_power(
                        chip.config(), mix_assignments,
                        millivolts{fleet::bin_voltage_mv(
                            spec, result.requirement_mv)},
                        celsius{50.0})
                    .value;
            result.bucket = static_cast<int>(request.cohort.corner);
            return result;
        };

    tracer trace;
    metrics_registry metrics;
    fleet::fleet_service_config config;
    config.campaign = "fleet_binning";
    config.trace = &trace;
    config.metrics = &metrics;
    if (status_path) {
        config.state_path = *status_path;
    }
    std::optional<fault_plan> faults;
    if (*fault_rate > 0.0) {
        faults = make_uniform_fault_plan(2024, *fault_rate);
        config.faults = &*faults;
        config.replan_rounds = static_cast<int>(*replan_rounds);
    }
    config.integrity.quorum = static_cast<int>(*quorum);
    config.integrity.sdc = sdc ? &*sdc : nullptr;
    config.integrity.audit_stride = static_cast<std::uint64_t>(*audit_stride);
    fleet::fleet_service service(spec, config, probe);
    const fleet::campaign_outcome outcome = service.run_campaign();

    std::cout << "fleet of " << 3 * per_corner
              << " chips, binned by revealed safe voltage (mix + virus + "
                 "10 mV guard):\n\n";
    text_table table({"voltage class mV", "chips", "share"});
    const double total = 3.0 * per_corner;
    for (const auto& [voltage, count] : service.bins()) {
        table.add_row({std::to_string(voltage), std::to_string(count),
                       format_percent(count / total, 0)});
    }
    table.render(std::cout);

    const double fleet_nominal_w = service.power_nominal_w();
    const double fleet_binned_w = service.power_binned_w();
    std::cout << "\nfleet PMD power: "
              << format_number(fleet_nominal_w, 0) << " W at nominal vs "
              << format_number(fleet_binned_w, 0)
              << " W binned -- "
              << format_percent(1.0 - fleet_binned_w / fleet_nominal_w, 1)
              << " saved by per-chip operating points\n";
    // Only a hostile rig can quarantine chips; keep the healthy-rig
    // output byte-identical by printing the summary only for one.
    if (faults) {
        std::cout << "\ndegraded: " << outcome.degraded << " of "
                  << outcome.probes
                  << " chips quarantined at the nominal bin ("
                  << outcome.replanned << " re-planned, "
                  << format_number(outcome.stats.rig_downtime_s, 0)
                  << " s simulated rig downtime)\n";
    }
    // Same discipline for the Byzantine-rig summary: only an --sdc run
    // can differ from the clean output, so only an --sdc run prints it.
    if (sdc_text) {
        std::cout << "\nintegrity: " << service.sdc_injected()
                  << " corruptions injected, " << service.sdc_detected()
                  << " detected (" << service.sdc_outvoted()
                  << " outvoted by the quorum of " << *quorum << ", "
                  << service.audit_mismatches() << " audit-caught), "
                  << service.sdc_escaped() << " escaped\n";
    }
    if (trace_path) {
        std::ofstream out(*trace_path);
        write_chrome_trace(out, trace);
        std::cerr << "trace written to " << *trace_path << " ("
                  << trace.size() << " events)\n";
    }
    if (metrics_path) {
        std::ofstream out(*metrics_path);
        write_metrics_json(out, metrics);
        std::cerr << "metrics written to " << *metrics_path << '\n';
    }
    return 0;
}
