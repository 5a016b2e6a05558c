#include "harness/report/artifacts.hpp"

#include <fstream>

#include "util/wire.hpp"

namespace gb::report {

namespace {

/// Prefix a loader diagnostic so every error is one self-contained line.
std::string tagged(std::string_view what, std::string_view detail) {
    std::string out(what);
    out += ": ";
    out += detail;
    return out;
}

/// `read` over the whole file at `path`, its diagnostic tagged with the
/// path.
template <typename Read>
auto load_file(const std::string& path, std::string& error, Read read)
    -> decltype(read(std::string_view{}, error)) {
    const std::optional<std::string> text = gb::read_file(path);
    if (!text) {
        error = tagged(path, "cannot open file");
        return std::nullopt;
    }
    auto artifact = read(*text, error);
    if (!artifact) {
        error = tagged(path, error);
    }
    return artifact;
}

} // namespace

std::optional<trace_artifact> load_trace_file(const std::string& path,
                                              std::string& error) {
    return load_file(path, error, read_chrome_trace);
}

std::optional<metrics_snapshot> load_metrics_file(const std::string& path,
                                                  std::string& error) {
    return load_file(path, error, read_metrics_json);
}

std::optional<journal_artifact> load_journal_file(const std::string& path,
                                                  std::string& error) {
    std::ifstream in(path);
    if (!in.is_open()) {
        error = tagged(path, "cannot open file");
        return std::nullopt;
    }
    journal_artifact artifact = replay_journal(in);
    if (artifact.records() == 0) {
        error = tagged(
            path,
            artifact.truncated_tail
                ? "journal holds only a truncated tail (still being "
                  "written?)"
            : artifact.lines == 0
                ? "journal is empty"
                : "no recoverable record in " +
                      std::to_string(artifact.lines) + " lines");
        return std::nullopt;
    }
    return artifact;
}

std::optional<timeline_artifact> load_timeline_file(const std::string& path,
                                                    std::string& error) {
    return load_file(path, error, read_timeline_json);
}

std::optional<campaign_status> load_status_file(const std::string& path,
                                                std::string& error) {
    return load_file(path, error, read_status_json);
}

} // namespace gb::report
