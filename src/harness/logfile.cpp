#include "harness/logfile.hpp"

#include <algorithm>
#include <vector>

#include "util/wire.hpp"

namespace gb {

namespace {

constexpr std::string_view record_prefix = "run=";
constexpr std::string_view dram_prefix = "dram=";

std::string_view outcome_token(run_outcome outcome) {
    return to_string(outcome);
}

bool parse_outcome(std::string_view token, run_outcome& outcome) {
    for (const run_outcome candidate :
         {run_outcome::ok, run_outcome::corrected_error,
          run_outcome::uncorrectable_error,
          run_outcome::silent_data_corruption, run_outcome::crash,
          run_outcome::hang, run_outcome::aborted_rig}) {
        if (token == to_string(candidate)) {
            outcome = candidate;
            return true;
        }
    }
    return false;
}

bool parse_dram_outcome(std::string_view token, dram_run_outcome& outcome) {
    for (const dram_run_outcome candidate :
         {dram_run_outcome::clean, dram_run_outcome::contained,
          dram_run_outcome::uncorrectable, dram_run_outcome::aborted_rig}) {
        if (token == to_string(candidate)) {
            outcome = candidate;
            return true;
        }
    }
    return false;
}

bool parse_pattern(std::string_view token, data_pattern& pattern) {
    for (const data_pattern candidate : all_data_patterns()) {
        if (token == to_string(candidate)) {
            pattern = candidate;
            return true;
        }
    }
    return false;
}

/// Iterate a line's space-separated fields; stops (returning false) on the
/// first field that fails `consume`.
template <typename Fn>
bool for_each_field(std::string_view line, Fn&& consume) {
    for (const std::string_view field : split_fields(line)) {
        const std::size_t eq = field.find('=');
        if (eq == std::string_view::npos ||
            !consume(field.substr(0, eq), field.substr(eq + 1))) {
            return false;
        }
    }
    return true;
}

} // namespace

std::string to_log_line(const run_record& record) {
    std::string line;
    line += record_prefix;
    line += record.benchmark;
    line += " v=" + format_double(record.voltage.value);
    line += " f=" + format_double(record.frequency.value);
    line += " cores=" + format_list(record.cores, '+');
    line += " rep=" + std::to_string(record.repetition);
    line += " outcome=";
    line += outcome_token(record.outcome);
    line += " margin=" + format_double(record.margin.value);
    line += " path=";
    line += to_string(record.path);
    line += " wdt=";
    line += record.watchdog_reset ? '1' : '0';
    return line;
}

bool parse_log_line(std::string_view line, run_record& record) {
    if (!line.starts_with(record_prefix)) {
        return false;
    }
    run_record parsed;
    bool have_outcome = false;
    bool have_voltage = false;
    bool have_benchmark = false;
    // wdt is the line's last field; requiring it means a mid-line
    // truncation can never parse as a (wrong) record with defaulted
    // trailing fields -- same reason the DRAM format keeps outcome last.
    bool have_wdt = false;

    const bool well_formed = for_each_field(
        line, [&](std::string_view key, std::string_view value) {
            if (key == "run") {
                if (value.empty()) {
                    return false;
                }
                parsed.benchmark = std::string(value);
                have_benchmark = true;
            } else if (key == "v") {
                double v = 0.0;
                if (!parse_double(value, v)) {
                    return false;
                }
                parsed.voltage = millivolts{v};
                have_voltage = true;
            } else if (key == "f") {
                double f = 0.0;
                if (!parse_double(value, f)) {
                    return false;
                }
                parsed.frequency = megahertz{f};
            } else if (key == "cores") {
                std::vector<int> cores;
                if (!parse_list(value, '+', cores)) {
                    return false;
                }
                parsed.cores.insert(parsed.cores.end(), cores.begin(),
                                    cores.end());
            } else if (key == "rep") {
                if (!parse_int(value, parsed.repetition)) {
                    return false;
                }
            } else if (key == "outcome") {
                if (!parse_outcome(value, parsed.outcome)) {
                    return false;
                }
                have_outcome = true;
            } else if (key == "margin") {
                double m = 0.0;
                if (!parse_double(value, m)) {
                    return false;
                }
                parsed.margin = millivolts{m};
            } else if (key == "path") {
                if (value == to_string(failure_path::sram)) {
                    parsed.path = failure_path::sram;
                } else if (value == to_string(failure_path::logic)) {
                    parsed.path = failure_path::logic;
                } else {
                    return false;
                }
            } else if (key == "wdt") {
                int flag = 0;
                if (!parse_int(value, flag)) {
                    return false;
                }
                parsed.watchdog_reset = flag != 0;
                have_wdt = true;
            } else {
                return false; // unknown key: treat the line as corrupt
            }
            return true;
        });

    if (!well_formed || !have_benchmark || !have_voltage || !have_outcome ||
        !have_wdt) {
        return false;
    }
    record = std::move(parsed);
    return true;
}

std::string to_log_line(const dram_run_record& record) {
    // The outcome field stays last so any mid-line truncation is rejected
    // by the mandatory-field check rather than parsing as a wrong record.
    std::string line;
    line += dram_prefix;
    line += to_string(record.pattern);
    line += " t=" + format_double(record.temperature.value);
    line += " p=" + format_double(record.refresh_period.value);
    line += " rep=" + std::to_string(record.repetition);
    line += " fail=" + std::to_string(record.scan.failed_cells);
    line += " words=" + std::to_string(record.scan.affected_words);
    line += " ce=" + std::to_string(record.scan.ce_words);
    line += " ue=" + std::to_string(record.scan.ue_words);
    line += " sdc=" + std::to_string(record.scan.sdc_words);
    line += " bits=" + std::to_string(record.scan.scanned_bits);
    line += " banks=" + format_list(record.scan.per_bank_failures, '+');
    line += " regdev=" + format_double(record.regulation_deviation_c);
    line += " outcome=";
    line += to_string(record.outcome);
    return line;
}

bool parse_log_line(std::string_view line, dram_run_record& record) {
    if (!line.starts_with(dram_prefix)) {
        return false;
    }
    dram_run_record parsed;
    bool have_pattern = false;
    bool have_temperature = false;
    bool have_outcome = false;

    const bool well_formed = for_each_field(
        line, [&](std::string_view key, std::string_view value) {
            if (key == "dram") {
                if (!parse_pattern(value, parsed.pattern)) {
                    return false;
                }
                have_pattern = true;
            } else if (key == "t") {
                double t = 0.0;
                if (!parse_double(value, t)) {
                    return false;
                }
                parsed.temperature = celsius{t};
                have_temperature = true;
            } else if (key == "p") {
                double p = 0.0;
                if (!parse_double(value, p)) {
                    return false;
                }
                parsed.refresh_period = milliseconds{p};
            } else if (key == "rep") {
                if (!parse_int(value, parsed.repetition)) {
                    return false;
                }
            } else if (key == "fail") {
                if (!parse_int(value, parsed.scan.failed_cells)) {
                    return false;
                }
            } else if (key == "words") {
                if (!parse_int(value, parsed.scan.affected_words)) {
                    return false;
                }
            } else if (key == "ce") {
                if (!parse_int(value, parsed.scan.ce_words)) {
                    return false;
                }
            } else if (key == "ue") {
                if (!parse_int(value, parsed.scan.ue_words)) {
                    return false;
                }
            } else if (key == "sdc") {
                if (!parse_int(value, parsed.scan.sdc_words)) {
                    return false;
                }
            } else if (key == "bits") {
                if (!parse_int(value, parsed.scan.scanned_bits)) {
                    return false;
                }
            } else if (key == "banks") {
                std::vector<std::uint64_t> banks;
                if (!parse_list(value, '+', banks) ||
                    banks.size() != parsed.scan.per_bank_failures.size()) {
                    return false;
                }
                std::copy(banks.begin(), banks.end(),
                          parsed.scan.per_bank_failures.begin());
            } else if (key == "regdev") {
                if (!parse_double(value,
                                  parsed.regulation_deviation_c)) {
                    return false;
                }
            } else if (key == "outcome") {
                if (!parse_dram_outcome(value, parsed.outcome)) {
                    return false;
                }
                have_outcome = true;
            } else {
                return false; // unknown key: treat the line as corrupt
            }
            return true;
        });

    if (!well_formed || !have_pattern || !have_temperature ||
        !have_outcome) {
        return false;
    }
    record = std::move(parsed);
    return true;
}

} // namespace gb
