#include "harness/report/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <ostream>
#include <set>

#include "harness/campaign.hpp"
#include "harness/dram_campaign.hpp"
#include "util/table.hpp"
#include "util/wire.hpp"

namespace gb::report {
namespace {

std::string format_cores(const std::vector<int>& cores) {
    std::string out;
    for (const int core : cores) {
        if (!out.empty()) {
            out += '+';
        }
        out += std::to_string(core);
    }
    return out.empty() ? "-" : out;
}

} // namespace

// --- trace model --------------------------------------------------------

std::uint64_t campaign_node::downtime_ticks() const {
    std::uint64_t total = 0;
    for (const task_node& task : tasks) {
        total += task.ticks - quantum_ticks;
    }
    return total;
}

std::uint64_t trace_model::total_task_ticks() const {
    std::uint64_t total = 0;
    for (const campaign_node& campaign : campaigns) {
        total += campaign.task_ticks;
    }
    return total;
}

std::optional<trace_model> build_trace_model(trace_artifact artifact,
                                             std::string& error) {
    trace_model model;
    model.source = std::move(artifact);
    // Campaign-control spans, in deterministic layout order.
    for (const trace_event* event : model.source.on_track(0)) {
        if (event->ph != trace_event::phase::complete) {
            error = "instant event on the campaign track";
            return std::nullopt;
        }
        campaign_node node;
        node.name = event->name;
        node.span_ticks = event->dur;
        const auto tasks = event->arg_u64("tasks");
        const auto first = event->arg_u64("first_index");
        if (!tasks || !first) {
            error = "campaign span '" + event->name +
                    "' lacks tasks/first_index args";
            return std::nullopt;
        }
        node.declared_tasks = *tasks;
        node.first_index = *first;
        node.declared_faults = event->arg_u64("faults").value_or(0);
        model.campaigns.push_back(std::move(node));
    }
    // Rig-track walk: each campaign owns the next `declared_tasks` task
    // spans; fault instants attach to the task span laid before them.
    const std::vector<const trace_event*> rig = model.source.on_track(1);
    std::size_t cursor = 0;
    for (campaign_node& campaign : model.campaigns) {
        task_node* current = nullptr;
        while (campaign.tasks.size() < campaign.declared_tasks ||
               (cursor < rig.size() &&
                rig[cursor]->ph == trace_event::phase::instant)) {
            if (cursor >= rig.size()) {
                error = "campaign '" + campaign.name + "' declares " +
                        std::to_string(campaign.declared_tasks) +
                        " tasks but the rig track ends after " +
                        std::to_string(campaign.tasks.size());
                return std::nullopt;
            }
            const trace_event* event = rig[cursor++];
            if (event->ph == trace_event::phase::instant) {
                if (current == nullptr) {
                    error = "fault instant before any task span";
                    return std::nullopt;
                }
                current->instants.push_back(event);
                continue;
            }
            if (event->name != "task") {
                error = "unexpected span '" + event->name +
                        "' on the rig track";
                return std::nullopt;
            }
            task_node task;
            const auto index = event->arg_u64("index");
            if (!index) {
                error = "task span without an index arg";
                return std::nullopt;
            }
            task.index = *index;
            task.ticks = event->dur;
            if (const auto bucket = event->arg_u64("bucket")) {
                task.bucket = static_cast<int>(*bucket);
            }
            task.faulted_attempts =
                event->arg_u64("faulted_attempts").value_or(0);
            const std::string* aborted = event->arg("aborted");
            task.aborted = aborted != nullptr && *aborted == "true";
            const std::string* replayed = event->arg("replayed");
            task.replayed = replayed != nullptr && *replayed == "true";
            campaign.task_ticks += task.ticks;
            campaign.tasks.push_back(std::move(task));
            current = &campaign.tasks.back();
        }
        if (!campaign.tasks.empty()) {
            campaign.quantum_ticks = std::numeric_limits<std::uint64_t>::max();
            for (const task_node& task : campaign.tasks) {
                campaign.quantum_ticks =
                    std::min(campaign.quantum_ticks, task.ticks);
            }
        }
    }
    if (cursor != rig.size()) {
        error = std::to_string(rig.size() - cursor) +
                " rig-track events beyond the declared campaigns";
        return std::nullopt;
    }
    model.supervisor_events = model.source.on_track(2);
    return model;
}

// --- summary ------------------------------------------------------------

namespace {

/// One (benchmark, cores, frequency) CPU rollup group.
struct cpu_group {
    std::uint64_t runs = 0;
    std::uint64_t ok = 0;
    std::uint64_t corrected = 0;
    std::uint64_t disruptive = 0;
    std::uint64_t watchdog_resets = 0;
    /// voltage (mV) -> had any disruptive run there.
    std::map<double, bool> voltages;
};

/// Per-temperature DRAM rollup group.
struct dram_group {
    std::uint64_t records = 0;
    std::uint64_t clean = 0;
    std::uint64_t contained = 0;
    std::uint64_t uncorrectable = 0;
    std::uint64_t aborted = 0;
    std::uint64_t weak_cells = 0;     ///< failing-cell observations, summed
    std::uint64_t max_scan_cells = 0; ///< worst single scan
    /// refresh period (ms) -> every record at it is clean/contained.
    std::map<double, bool> periods;
};

} // namespace

void render_summary(std::ostream& out, const journal_artifact& journal) {
    out << "journal: " << journal.lines << " line(s), " << journal.records()
        << " record(s), " << journal.skipped << " skipped";
    if (journal.truncated_tail) {
        out << ", truncated tail (live)";
    }
    out << "\n";
    if (!journal.cpu.completed.empty()) {
        std::map<std::tuple<std::string, std::string, double>, cpu_group>
            groups;
        for (const auto& [index, record] : journal.cpu.completed) {
            (void)index;
            cpu_group& group =
                groups[{record.benchmark, format_cores(record.cores),
                        record.frequency.value}];
            ++group.runs;
            const bool disruptive = is_disruption(record.outcome);
            if (record.outcome == run_outcome::ok) {
                ++group.ok;
            } else if (record.outcome == run_outcome::corrected_error) {
                ++group.corrected;
            }
            if (disruptive) {
                ++group.disruptive;
            }
            if (record.watchdog_reset) {
                ++group.watchdog_resets;
            }
            auto [at, inserted] =
                group.voltages.try_emplace(record.voltage.value, disruptive);
            if (!inserted) {
                at->second = at->second || disruptive;
            }
        }
        out << "\nCPU campaigns (" << journal.cpu.completed.size()
            << " run(s), " << journal.cpu.skipped << " skipped line(s))\n";
        text_table table({"benchmark", "cores", "f(MHz)", "runs", "ok", "ce",
                          "disrupt", "wdt", "safe Vmin(mV)"});
        for (const auto& [key, group] : groups) {
            const auto& [benchmark, cores, frequency] = key;
            // Safe Vmin: lowest swept voltage with no disruptive run.
            double vmin = 0.0;
            bool found = false;
            for (const auto& [voltage, disruptive] : group.voltages) {
                if (!disruptive) {
                    vmin = voltage;
                    found = true;
                    break;
                }
            }
            table.add_row({benchmark, cores, format_number(frequency, 0),
                           std::to_string(group.runs),
                           std::to_string(group.ok),
                           std::to_string(group.corrected),
                           std::to_string(group.disruptive),
                           std::to_string(group.watchdog_resets),
                           found ? format_number(vmin, 1) : "-"});
        }
        table.render(out);
    }
    if (!journal.dram.completed.empty()) {
        std::map<double, dram_group> groups;
        for (const auto& [index, record] : journal.dram.completed) {
            (void)index;
            dram_group& group = groups[record.temperature.value];
            ++group.records;
            const bool safe =
                record.outcome == dram_run_outcome::clean ||
                record.outcome == dram_run_outcome::contained;
            switch (record.outcome) {
            case dram_run_outcome::clean: ++group.clean; break;
            case dram_run_outcome::contained: ++group.contained; break;
            case dram_run_outcome::uncorrectable:
                ++group.uncorrectable;
                break;
            case dram_run_outcome::aborted_rig: ++group.aborted; break;
            }
            group.weak_cells += record.scan.failed_cells;
            group.max_scan_cells =
                std::max(group.max_scan_cells, record.scan.failed_cells);
            auto [at, inserted] =
                group.periods.try_emplace(record.refresh_period.value, safe);
            if (!inserted) {
                at->second = at->second && safe;
            }
        }
        out << "\nDRAM campaigns (" << journal.dram.completed.size()
            << " record(s), " << journal.dram.skipped
            << " skipped line(s))\n";
        text_table table({"temp(C)", "records", "clean", "ce", "ue",
                          "aborted", "weak cells", "worst scan",
                          "max safe tREF(ms)"});
        for (const auto& [temperature, group] : groups) {
            // Largest swept refresh period at which every record is
            // clean or contained; a missing measurement never certifies.
            double safe_period = 0.0;
            bool found = false;
            for (const auto& [period, safe] : group.periods) {
                if (safe && period > safe_period) {
                    safe_period = period;
                    found = true;
                }
            }
            table.add_row({format_number(temperature, 1),
                           std::to_string(group.records),
                           std::to_string(group.clean),
                           std::to_string(group.contained),
                           std::to_string(group.uncorrectable),
                           std::to_string(group.aborted),
                           std::to_string(group.weak_cells),
                           std::to_string(group.max_scan_cells),
                           found ? format_number(safe_period, 1) : "-"});
        }
        table.render(out);
    }
}

// --- critical path ------------------------------------------------------

void render_critical_path(std::ostream& out, const trace_model& model,
                          std::size_t top) {
    if (model.campaigns.empty()) {
        out << "critical-path: no campaign spans in the trace\n";
        return;
    }
    const std::uint64_t total = model.total_task_ticks();
    text_table campaigns({"campaign", "tasks", "task ticks", "downtime",
                          "faults", "share"});
    const campaign_node* dominant = &model.campaigns.front();
    for (const campaign_node& campaign : model.campaigns) {
        if (campaign.task_ticks > dominant->task_ticks) {
            dominant = &campaign;
        }
        campaigns.add_row(
            {campaign.name, std::to_string(campaign.tasks.size()),
             std::to_string(campaign.task_ticks),
             std::to_string(campaign.downtime_ticks()),
             std::to_string(campaign.declared_faults),
             total > 0 ? format_percent(
                             static_cast<double>(campaign.task_ticks) /
                             static_cast<double>(total))
                       : "-"});
    }
    campaigns.render(out);
    // The heaviest tasks of the dominant campaign are the virtual-time
    // critical path: every tick above the quantum is injected downtime.
    std::vector<const task_node*> ranked;
    ranked.reserve(dominant->tasks.size());
    for (const task_node& task : dominant->tasks) {
        ranked.push_back(&task);
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const task_node* a, const task_node* b) {
                         return a->ticks > b->ticks;
                     });
    if (ranked.size() > top) {
        ranked.resize(top);
    }
    out << "\ncritical path of '" << dominant->name << "' (top "
        << ranked.size() << " of " << dominant->tasks.size()
        << " tasks, quantum " << dominant->quantum_ticks << " ticks)\n";
    text_table tasks(
        {"task", "ticks", "share", "attempts", "flags", "faults"});
    for (const task_node* task : ranked) {
        std::string flags;
        if (task->aborted) {
            flags += "aborted";
        }
        if (task->replayed) {
            flags += flags.empty() ? "replayed" : "+replayed";
        }
        std::string faults;
        for (const trace_event* instant : task->instants) {
            if (!faults.empty()) {
                faults += ',';
            }
            const std::string* kind = instant->arg("kind");
            faults += kind != nullptr ? *kind : instant->name;
        }
        tasks.add_row(
            {std::to_string(task->index), std::to_string(task->ticks),
             dominant->task_ticks > 0
                 ? format_percent(static_cast<double>(task->ticks) /
                                  static_cast<double>(dominant->task_ticks))
                 : "-",
             std::to_string(task->faulted_attempts + 1),
             flags.empty() ? "-" : flags, faults.empty() ? "-" : faults});
    }
    tasks.render(out);
}

// --- utilization --------------------------------------------------------

double utilization_report::efficiency() const {
    if (makespan == 0 || workers <= 0) {
        return 0.0;
    }
    return static_cast<double>(serial_ticks) /
           (static_cast<double>(workers) * static_cast<double>(makespan));
}

double utilization_report::speedup() const {
    if (makespan == 0) {
        return 0.0;
    }
    return static_cast<double>(serial_ticks) /
           static_cast<double>(makespan);
}

double utilization_report::imbalance() const {
    if (loads.empty() || serial_ticks == 0) {
        return 0.0;
    }
    std::uint64_t busiest = 0;
    for (const worker_load& load : loads) {
        busiest = std::max(busiest, load.busy_ticks);
    }
    const double mean = static_cast<double>(serial_ticks) /
                        static_cast<double>(loads.size());
    return mean > 0.0 ? static_cast<double>(busiest) / mean : 0.0;
}

utilization_report simulate_utilization(const trace_model& model,
                                        int workers) {
    // Campaigns run back to back (engine runs are sequential): a barrier
    // separates them.  The placement policy itself is the shared list
    // scheduler (harness/schedule.hpp).  Virtual time only --
    // deterministic.
    list_scheduler scheduler(workers);
    for (const campaign_node& campaign : model.campaigns) {
        for (const task_node& task : campaign.tasks) {
            scheduler.assign(task.ticks);
        }
        scheduler.barrier();
    }
    utilization_report report;
    report.workers = scheduler.workers();
    report.serial_ticks = scheduler.serial_ticks();
    report.makespan = scheduler.makespan();
    report.loads = scheduler.loads();
    return report;
}

void render_utilization(std::ostream& out,
                        const utilization_report& report) {
    out << "utilization: " << report.workers << " simulated worker(s), "
        << report.serial_ticks << " serial ticks, makespan "
        << report.makespan << " ticks\n";
    out << "speedup " << format_number(report.speedup(), 2)
        << "x, efficiency " << format_percent(report.efficiency())
        << ", imbalance " << format_number(report.imbalance(), 2)
        << "x\n";
    text_table table({"worker", "tasks", "busy ticks", "share"});
    for (std::size_t w = 0; w < report.loads.size(); ++w) {
        const worker_load& load = report.loads[w];
        table.add_row(
            {std::to_string(w), std::to_string(load.tasks),
             std::to_string(load.busy_ticks),
             report.serial_ticks > 0
                 ? format_percent(static_cast<double>(load.busy_ticks) /
                                  static_cast<double>(report.serial_ticks))
                 : "-"});
    }
    table.render(out);
}

// --- timeline -----------------------------------------------------------

namespace {

std::string format_args(const trace_event& event) {
    std::string out;
    for (const auto& [key, value] : event.args) {
        if (!out.empty()) {
            out += ' ';
        }
        out += key;
        out += '=';
        out += value;
    }
    return out;
}

} // namespace

void render_timeline(std::ostream& out, const trace_model& model,
                     const metrics_snapshot* metrics) {
    std::size_t fault_instants = 0;
    for (const campaign_node& campaign : model.campaigns) {
        for (const task_node& task : campaign.tasks) {
            fault_instants += task.instants.size();
        }
    }
    out << "timeline: " << model.campaigns.size() << " campaign(s), "
        << fault_instants << " fault instant(s), "
        << model.supervisor_events.size() << " supervisor event(s)\n";
    for (const campaign_node& campaign : model.campaigns) {
        out << "[campaign] " << campaign.name
            << " tasks=" << campaign.tasks.size()
            << " faults=" << campaign.declared_faults
            << " ticks=" << campaign.task_ticks << "\n";
        for (const task_node& task : campaign.tasks) {
            for (const trace_event* instant : task.instants) {
                out << "  [" << instant->category << "] task " << task.index
                    << " " << instant->name;
                const std::string args = format_args(*instant);
                if (!args.empty()) {
                    out << " " << args;
                }
                out << "\n";
            }
            if (task.aborted) {
                out << "  [engine] task " << task.index
                    << " aborted after "
                    << (task.faulted_attempts + 1) << " attempt(s)\n";
            }
        }
    }
    for (const trace_event* event : model.supervisor_events) {
        if (event->ph == trace_event::phase::complete) {
            out << "[supervisor] " << event->name;
        } else {
            out << "  [supervisor] " << event->name;
        }
        const std::string args = format_args(*event);
        if (!args.empty()) {
            out << " " << args;
        }
        out << "\n";
    }
    if (metrics != nullptr) {
        out << "\nhealth metrics\n";
        text_table table({"metric", "kind", "value"});
        for (const auto& [name, value] : metrics->counters) {
            table.add_row({name, "counter", std::to_string(value)});
        }
        for (const auto& [name, value] : metrics->gauges) {
            table.add_row({name, "gauge", format_double(value)});
        }
        for (const auto& [name, histogram] : metrics->histograms) {
            table.add_row({name, "histogram",
                           std::to_string(histogram.count) + " samples, sum " +
                               std::to_string(histogram.sum)});
        }
        table.render(out);
    }
}

// --- metrics diff -------------------------------------------------------

double tolerance_for(const diff_options& options, std::string_view name) {
    double best = options.default_tolerance;
    std::size_t best_length = 0;
    bool exact = false;
    for (const auto& [pattern, tolerance] : options.overrides) {
        if (pattern == name) {
            best = tolerance;
            exact = true;
        } else if (!exact && !pattern.empty() && pattern.back() == '*') {
            const std::string_view prefix =
                std::string_view(pattern).substr(0, pattern.size() - 1);
            if (name.substr(0, prefix.size()) == prefix &&
                prefix.size() >= best_length) {
                best = tolerance;
                best_length = prefix.size() + 1;
            }
        }
    }
    return best;
}

namespace {

struct flat_metric {
    std::string kind;
    double value = 0.0;
    /// 64-bit payload for integer metrics; doubles round above 2^53, so a
    /// counter (e.g. content.hash) must compare on the exact integer.
    std::uint64_t integer = 0;
    bool is_integer = false;

    [[nodiscard]] std::string text() const {
        return is_integer ? std::to_string(integer) : format_double(value);
    }
};

std::map<std::string, flat_metric> flatten(const metrics_snapshot& snapshot) {
    std::map<std::string, flat_metric> flat;
    const auto integer_metric = [](const char* kind, std::uint64_t value) {
        return flat_metric{kind, static_cast<double>(value), value, true};
    };
    for (const auto& [name, value] : snapshot.counters) {
        flat[name] = integer_metric("counter", value);
    }
    for (const auto& [name, value] : snapshot.gauges) {
        flat[name] = {"gauge", value, 0, false};
    }
    for (const auto& [name, histogram] : snapshot.histograms) {
        flat[name + ".count"] = integer_metric("histogram", histogram.count);
        flat[name + ".sum"] = integer_metric("histogram", histogram.sum);
    }
    return flat;
}

} // namespace

diff_report diff_metrics(const metrics_snapshot& baseline,
                         const metrics_snapshot& candidate,
                         const diff_options& options) {
    const std::map<std::string, flat_metric> base = flatten(baseline);
    const std::map<std::string, flat_metric> cand = flatten(candidate);
    diff_report report;
    std::set<std::string> names;
    for (const auto& [name, metric] : base) {
        (void)metric;
        names.insert(name);
    }
    for (const auto& [name, metric] : cand) {
        (void)metric;
        names.insert(name);
    }
    for (const std::string& name : names) {
        const auto in_base = base.find(name);
        const auto in_cand = cand.find(name);
        diff_entry entry;
        entry.name = name;
        entry.tolerance = tolerance_for(options, name);
        if (in_base == base.end()) {
            entry.kind = in_cand->second.kind;
            entry.candidate = in_cand->second.value;
            entry.candidate_text = in_cand->second.text();
            entry.status = diff_status::added;
            ++report.added;
        } else if (in_cand == cand.end()) {
            entry.kind = in_base->second.kind;
            entry.baseline = in_base->second.value;
            entry.baseline_text = in_base->second.text();
            entry.status = diff_status::missing;
            ++report.missing;
        } else {
            const flat_metric& before = in_base->second;
            const flat_metric& after = in_cand->second;
            entry.kind = before.kind;
            entry.baseline = before.value;
            entry.candidate = after.value;
            entry.baseline_text = before.text();
            entry.candidate_text = after.text();
            // Integer metrics get exact equality (a double merges values
            // above 2^53); the relative change itself may round, but a
            // rounded nonzero is still nonzero.
            const bool identical =
                before.is_integer && after.is_integer
                    ? before.integer == after.integer
                    : entry.candidate == entry.baseline;
            if (identical) {
                entry.relative = 0.0;
            } else if (entry.baseline == 0.0) {
                // A zero baseline admits only an exactly-zero candidate.
                entry.relative = std::numeric_limits<double>::infinity();
            } else {
                const double delta =
                    before.is_integer && after.is_integer
                        ? static_cast<double>(
                              before.integer > after.integer
                                  ? before.integer - after.integer
                                  : after.integer - before.integer)
                        : std::fabs(entry.candidate - entry.baseline);
                entry.relative =
                    std::max(delta / std::fabs(entry.baseline),
                             std::numeric_limits<double>::min());
            }
            if (entry.relative > entry.tolerance) {
                entry.status = diff_status::regression;
                ++report.regressions;
            }
        }
        report.entries.push_back(std::move(entry));
    }
    return report;
}

void render_diff(std::ostream& out, const diff_report& report) {
    text_table table({"metric", "kind", "baseline", "candidate", "rel",
                      "tol", "status"});
    for (const diff_entry& entry : report.entries) {
        std::string relative;
        if (entry.status == diff_status::added ||
            entry.status == diff_status::missing) {
            relative = "-";
        } else if (std::isinf(entry.relative)) {
            relative = "inf";
        } else {
            relative = format_percent(entry.relative, 2);
        }
        const char* status = "ok";
        switch (entry.status) {
        case diff_status::ok: status = "ok"; break;
        case diff_status::added: status = "added"; break;
        case diff_status::regression: status = "REGRESSION"; break;
        case diff_status::missing: status = "MISSING"; break;
        }
        table.add_row(
            {entry.name, entry.kind,
             entry.status == diff_status::added ? "-" : entry.baseline_text,
             entry.status == diff_status::missing ? "-"
                                                  : entry.candidate_text,
             relative, format_percent(entry.tolerance, 2), status});
    }
    table.render(out);
    out << "diff: " << report.entries.size() << " metric(s), "
        << report.regressions << " regression(s), " << report.missing
        << " missing, " << report.added << " added\n";
}

// --- sdc audit ----------------------------------------------------------

audit_report build_audit_report(const metrics_snapshot& metrics) {
    audit_report report;
    for (const auto& [name, value] : metrics.gauges) {
        if (std::string_view(name).substr(0, 10) == "integrity.") {
            report.present = true;
            break;
        }
    }
    if (!report.present) {
        return report;
    }
    // The emit side writes these gauges from 64-bit counters small enough
    // to round-trip a double exactly.
    const auto count = [&metrics](std::string_view name) {
        const double value = metrics.gauge_value(name);
        return value <= 0.0 ? 0ULL
                            : static_cast<std::uint64_t>(value + 0.5);
    };
    report.injected = count("integrity.sdc_injected");
    report.detected = count("integrity.sdc_detected");
    report.outvoted = count("integrity.sdc_outvoted");
    report.audit_caught = count("integrity.audit_mismatches");
    report.stalemates = count("integrity.quorum_stalemates");
    report.corrected = count("integrity.sdc_corrected");
    report.escaped = count("integrity.sdc_escaped");
    report.audits = count("integrity.audits");
    report.dissents = count("integrity.dissents");
    report.blacklisted_rigs = count("integrity.blacklisted_rigs");
    report.repaired_entries = count("integrity.repaired_entries");
    report.replica_executions = count("integrity.replica_executions");
    return report;
}

void render_audit(std::ostream& out, const audit_report& report) {
    out << "sdc audit: " << report.injected << " injected, "
        << report.detected << " detected (" << report.outvoted
        << " outvoted, " << report.audit_caught << " audit-caught, "
        << report.stalemates << " stalemates), " << report.corrected
        << " corrected, " << report.escaped << " escaped\n"
        << "defense: " << report.replica_executions
        << " replica executions, " << report.audits << " audits, "
        << report.dissents << " dissents, " << report.blacklisted_rigs
        << " blacklisted rigs, " << report.repaired_entries
        << " repaired entries\n";
    if (report.escaped > 0) {
        out << "VERDICT: ESCAPED -- " << report.escaped
            << " corruption(s) reached the served snapshot\n";
    } else {
        out << "verdict: clean -- every injected corruption was caught\n";
    }
}

} // namespace gb::report
