// Ablation -- what the fleet service's content-addressed cache is worth.
// Characterizes a 10^5-node simulated X-Gene2 fleet through the campaign
// service three times: a cold epoch that executes every cohort probe, a
// second cold epoch at a new sweep offset, and a warm epoch that revisits
// the first sweep and must execute nothing.  A fourth service instance
// restarts from the journal and replays the whole schedule cache-only.
// The baseline pins the cache accounting exactly (any drift in hits,
// misses or executed probes is a determinism bug) and publishes the
// cold-vs-warm wall medians the refactor's claim rests on.
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "fleet/probe.hpp"
#include "fleet/service.hpp"
#include "util/table.hpp"

using namespace gb;
using namespace gb::fleet;

namespace {

fleet_spec mega_fleet() {
    fleet_spec spec;
    spec.nodes = 100000;
    return spec;
}

} // namespace

int main(int argc, char** argv) {
    bench::metrics_reporter reporter(argc, argv);
    bench::baseline_reporter baseline(argc, argv, "ablation_fleet_service");
    bench::banner(
        "Ablation -- fleet service probe cache (cold vs warm campaigns)",
        "fleet-scale exploitation only pays off if revealing each cohort's "
        "guardband is paid once; the service executes one probe per "
        "distinct (cohort, sweep) content id and fans the result out to "
        "every node, campaign and restart");

    const fleet_spec spec = mega_fleet();
    const std::string journal_path = bench::temp_path("gb_fleet_bench.journal");
    std::remove(journal_path.c_str());

    // The service's sink needs one shard per engine worker (the reporter's
    // registry is serial); its counters are copied into the reporter below.
    metrics_registry service_metrics;
    fleet_service_config config;
    config.campaign = "fleet_bench";
    config.journal_path = journal_path;
    config.metrics = &service_metrics;
    fleet_service service(spec, config, make_xgene2_probe(spec));

    campaign_outcome cold;
    campaign_outcome sweep;
    campaign_outcome warm;
    baseline.time("campaign_cold", [&] { cold = service.run_campaign(0); });
    baseline.time("campaign_sweep",
                  [&] { sweep = service.run_campaign(-20); });
    baseline.time("campaign_warm", [&] { warm = service.run_campaign(0); });

    // Restart: a journal-warmed service re-executes nothing, ever.
    campaign_outcome replayed;
    fleet_service_config restart_config;
    restart_config.campaign = "fleet_bench_restart";
    restart_config.journal_path = journal_path;
    baseline.time("restart_warm_cache", [&] {
        fleet_service restarted(spec, restart_config);
        replayed = restarted.run_campaign(0);
        replayed.cache_hits += restarted.run_campaign(-20).cache_hits;
        baseline.counter("restart.restored", restarted.restored());
    });

    text_table table({"epoch", "probes", "executed", "cache hits"});
    table.add_row({"cold sweep 0", std::to_string(cold.probes),
                   std::to_string(cold.executed),
                   std::to_string(cold.cache_hits)});
    table.add_row({"cold sweep -20", std::to_string(sweep.probes),
                   std::to_string(sweep.executed),
                   std::to_string(sweep.cache_hits)});
    table.add_row({"warm sweep 0", std::to_string(warm.probes),
                   std::to_string(warm.executed),
                   std::to_string(warm.cache_hits)});
    table.render(std::cout);
    std::cout << "fleet: " << service.node_count() << " nodes in "
              << service.cohorts().size() << " cohorts, "
              << service.bins().size() << " voltage classes, power "
              << format_number(service.power_nominal_w() / 1e3, 1)
              << " kW nominal -> "
              << format_number(service.power_binned_w() / 1e3, 1)
              << " kW binned\n";

    // Exact content metrics: the whole cache ledger, the binning and the
    // journal-restart accounting.  absorb() folds the service's fleet.*
    // counters (nodes fanned out, probes executed, cache hits) on top.
    baseline.counter("cache.hits", service.cache().hits());
    baseline.counter("cache.misses", service.cache().misses());
    baseline.counter("cache.entries", service.cache().size());
    baseline.counter("campaign.cold_executed", cold.executed);
    baseline.counter("campaign.warm_executed", warm.executed);
    baseline.counter("campaign.warm_hits", warm.cache_hits);
    baseline.counter("restart.replayed_hits", replayed.cache_hits);
    baseline.counter("fleet.voltage_classes", service.bins().size());
    for (const auto& [mv, count] : service.bins()) {
        baseline.fold(static_cast<std::uint64_t>(mv));
        baseline.fold(count);
    }
    const metrics_snapshot fleet_counters = service_metrics.snapshot();
    baseline.absorb(fleet_counters);
    for (const auto& [name, value] : fleet_counters.counters) {
        reporter.registry().add(bench::metrics_reporter::shard,
                                reporter.registry().counter(name), value);
    }

    bench::note("the warm epoch touches no chip model at all -- every "
                "cohort is served from the content-addressed cache -- and "
                "a restarted daemon rebuilds the same cache from the "
                "journal without re-executing a single probe; the "
                "cold/warm wall gap is the per-campaign cost the cache "
                "amortizes away");

    std::remove(journal_path.c_str());
    if (cold.executed != cold.probes || cold.cache_hits != 0) {
        std::cerr << "FAIL: cold campaign should execute every probe\n";
        return 1;
    }
    if (warm.executed != 0 || warm.cache_hits != warm.probes) {
        std::cerr << "FAIL: warm campaign should be served by the cache\n";
        return 1;
    }
    if (replayed.cache_hits != cold.probes + sweep.probes) {
        std::cerr << "FAIL: restarted service should replay every probe "
                     "from the journal\n";
        return 1;
    }
    reporter.emit();
    baseline.emit();
    return 0;
}
