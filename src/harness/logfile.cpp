#include "harness/logfile.hpp"

#include "util/wire.hpp"

namespace gb {

namespace {

// wdt and outcome close their lines: a record cut anywhere loses a field
// or spells one short, so a truncated line never parses as a (wrong)
// record.

struct cpu_record_format {
    static constexpr std::string_view kind = "";
    static void fields(auto& field, auto& record) {
        field("run", record.benchmark);
        field("v", record.voltage);
        field("f", record.frequency);
        field("cores", joined(record.cores, '+'));
        field("rep", record.repetition);
        field("outcome", named(record.outcome, run_outcome_count));
        field("margin", record.margin);
        field("path", named(record.path, failure_path_count));
        field("wdt", flag(record.watchdog_reset, "0", "1"));
    }
};

struct dram_record_format {
    static constexpr std::string_view kind = "";
    static void fields(auto& field, auto& record) {
        field("dram", named(record.pattern, data_pattern_count));
        field("t", record.temperature);
        field("p", record.refresh_period);
        field("rep", record.repetition);
        field("fail", record.scan.failed_cells);
        field("words", record.scan.affected_words);
        field("ce", record.scan.ce_words);
        field("ue", record.scan.ue_words);
        field("sdc", record.scan.sdc_words);
        field("bits", record.scan.scanned_bits);
        field("banks", joined(record.scan.per_bank_failures, '+'));
        field("regdev", record.regulation_deviation_c);
        field("outcome", named(record.outcome, dram_run_outcome_count));
    }
};

} // namespace

std::string to_log_line(const run_record& record) {
    return render_record<cpu_record_format>(record);
}

bool parse_log_line(std::string_view line, run_record& record) {
    return parse_record<cpu_record_format>(line, record);
}

std::string to_log_line(const dram_run_record& record) {
    return render_record<dram_record_format>(record);
}

bool parse_log_line(std::string_view line, dram_run_record& record) {
    return parse_record<dram_record_format>(line, record);
}

} // namespace gb
