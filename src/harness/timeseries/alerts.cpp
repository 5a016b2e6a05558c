#include "harness/timeseries/alerts.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/wire.hpp"

namespace gb {

namespace {

constexpr char firing_key_sep = '\x1f';

std::string firing_key(std::string_view rule, std::string_view series) {
    std::string key(rule);
    key += firing_key_sep;
    key += series;
    return key;
}

/// Split one spec line into whitespace-separated tokens.  Unlike
/// `split_fields` (wire.hpp), which splits the machine-written journal
/// fields on spaces only, this also splits on tabs: rule files are written
/// by hand, and a tab-aligned rule must parse like a space-separated one.
std::vector<std::string_view> tokenize(std::string_view line) {
    std::vector<std::string_view> tokens;
    std::size_t pos = 0;
    while (pos < line.size()) {
        while (pos < line.size() &&
               (line[pos] == ' ' || line[pos] == '\t')) {
            ++pos;
        }
        std::size_t end = pos;
        while (end < line.size() && line[end] != ' ' && line[end] != '\t') {
            ++end;
        }
        if (end > pos) {
            tokens.push_back(line.substr(pos, end - pos));
        }
        pos = end;
    }
    return tokens;
}

/// The signed-threshold convention shared by delta and slope: a
/// non-negative threshold watches for rises, a negative one for drops.
bool over_threshold(double measure, double threshold) {
    return threshold >= 0.0 ? measure >= threshold : measure <= threshold;
}

/// Least-squares slope of the window's values against sample index
/// 0..n-1 (value per sample step).  n >= 2.
double window_slope(std::span<const ts_sample> window) {
    const auto n = static_cast<double>(window.size());
    const double x_mean = (n - 1.0) / 2.0;
    double y_mean = 0.0;
    for (const ts_sample& sample : window) {
        y_mean += sample.value;
    }
    y_mean /= n;
    double num = 0.0;
    double den = 0.0;
    for (std::size_t i = 0; i < window.size(); ++i) {
        const double dx = static_cast<double>(i) - x_mean;
        num += dx * (window[i].value - y_mean);
        den += dx * dx;
    }
    return num / den;
}

/// Evaluate one rule against one matching series.  False when the series
/// holds too few samples for the rule's window.
bool measure_rule(const alert_rule& rule, const series_snapshot& series,
                  double& measure) {
    if (series.samples.empty()) {
        return false;
    }
    switch (rule.op) {
    case alert_rule::op_kind::above:
    case alert_rule::op_kind::below:
        measure = series.last;
        return true;
    case alert_rule::op_kind::delta: {
        if (series.samples.size() < rule.window) {
            return false;
        }
        const std::vector<ts_sample> window = series.tail(rule.window);
        measure = window.back().value - window.front().value;
        return true;
    }
    case alert_rule::op_kind::slope: {
        if (series.samples.size() < rule.window) {
            return false;
        }
        const std::vector<ts_sample> window = series.tail(rule.window);
        measure = window_slope(window);
        return true;
    }
    }
    return false;
}

bool rule_fires(const alert_rule& rule, double measure) {
    switch (rule.op) {
    case alert_rule::op_kind::above:
        return measure >= rule.threshold;
    case alert_rule::op_kind::below:
        return measure <= rule.threshold;
    case alert_rule::op_kind::delta:
    case alert_rule::op_kind::slope:
        return over_threshold(measure, rule.threshold);
    }
    return false;
}

} // namespace

bool alert_rule::matches(std::string_view series_name) const {
    if (!series.empty() && series.back() == '*') {
        const std::string_view prefix =
            std::string_view(series).substr(0, series.size() - 1);
        return series_name.substr(0, prefix.size()) == prefix;
    }
    return series_name == series;
}

std::string_view to_string(alert_rule::op_kind op) {
    switch (op) {
    case alert_rule::op_kind::above:
        return "above";
    case alert_rule::op_kind::below:
        return "below";
    case alert_rule::op_kind::delta:
        return "delta";
    case alert_rule::op_kind::slope:
        return "slope";
    }
    return "?";
}

std::optional<std::vector<alert_rule>> parse_alert_rules(
    std::string_view text, std::string_view path, std::string& error) {
    const auto fail = [&](std::size_t line, std::string_view message) {
        error = std::string(path) + ":" + std::to_string(line) + ": " +
                std::string(message);
        return std::nullopt;
    };
    std::vector<alert_rule> rules;
    std::size_t line_number = 0;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t eol = text.find('\n', pos);
        const std::string_view line = text.substr(
            pos, eol == std::string_view::npos ? text.size() - pos
                                               : eol - pos);
        pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
        ++line_number;
        const std::size_t comment = line.find('#');
        const std::vector<std::string_view> tokens = tokenize(
            comment == std::string_view::npos ? line
                                              : line.substr(0, comment));
        if (tokens.empty()) {
            continue;
        }
        if (tokens[0] != "alert") {
            return fail(line_number, "expected 'alert', got '" +
                                         std::string(tokens[0]) + "'");
        }
        if (tokens.size() < 5) {
            return fail(line_number,
                        "alert wants: alert <name> <series> "
                        "above|below|delta|slope <value> [window <N>]");
        }
        alert_rule rule;
        rule.name = std::string(tokens[1]);
        rule.series = std::string(tokens[2]);
        const std::string_view op = tokens[3];
        if (op == "above") {
            rule.op = alert_rule::op_kind::above;
        } else if (op == "below") {
            rule.op = alert_rule::op_kind::below;
        } else if (op == "delta") {
            rule.op = alert_rule::op_kind::delta;
        } else if (op == "slope") {
            rule.op = alert_rule::op_kind::slope;
        } else {
            return fail(line_number, "unknown comparator '" +
                                         std::string(op) +
                                         "' (above|below|delta|slope)");
        }
        if (!parse_double(tokens[4], rule.threshold)) {
            return fail(line_number, "threshold '" + std::string(tokens[4]) +
                                         "' is not a number");
        }
        const bool windowed = rule.op == alert_rule::op_kind::delta ||
                              rule.op == alert_rule::op_kind::slope;
        if (windowed) {
            if (tokens.size() != 7 || tokens[5] != "window") {
                return fail(line_number,
                            std::string(to_string(rule.op)) +
                                " wants 'window <N>' after the threshold");
            }
            if (!parse_int(tokens[6], rule.window) || rule.window < 2) {
                return fail(line_number, "window '" + std::string(tokens[6]) +
                                             "' wants an integer >= 2");
            }
        } else if (tokens.size() != 5) {
            return fail(line_number, "trailing tokens after '" +
                                         std::string(tokens[4]) + "'");
        }
        rules.push_back(std::move(rule));
    }
    return rules;
}

std::optional<std::vector<alert_rule>> load_alert_rules_file(
    const std::string& path, std::string& error) {
    const std::optional<std::string> text = read_file(path);
    if (!text) {
        error = path + ": cannot open file";
        return std::nullopt;
    }
    return parse_alert_rules(*text, path, error);
}

std::vector<alert_match> evaluate_alert_rules(
    std::span<const alert_rule> rules,
    const std::vector<series_snapshot>& series) {
    std::vector<alert_match> matches;
    for (const alert_rule& rule : rules) {
        for (const series_snapshot& view : series) {
            if (!rule.matches(view.name)) {
                continue;
            }
            double measure = 0.0;
            if (measure_rule(rule, view, measure) &&
                rule_fires(rule, measure)) {
                matches.push_back({&rule, view.name, measure});
            }
        }
    }
    return matches;
}

alert_engine::alert_engine(std::vector<alert_rule> rules)
    : rules_(std::move(rules)) {}

std::vector<alert_event> alert_engine::evaluate(
    const std::vector<series_snapshot>& series, std::uint64_t tick) {
    // Walk every (rule, matching series) pair -- not just the firing
    // ones -- so resolved transitions are observed too.
    std::vector<alert_event> transitions;
    for (const alert_rule& rule : rules_) {
        for (const series_snapshot& view : series) {
            if (!rule.matches(view.name)) {
                continue;
            }
            double measure = 0.0;
            const bool fires = measure_rule(rule, view, measure) &&
                               rule_fires(rule, measure);
            const std::string key = firing_key(rule.name, view.name);
            const auto it =
                std::lower_bound(firing_.begin(), firing_.end(), key);
            const bool was_firing = it != firing_.end() && *it == key;
            if (fires == was_firing) {
                continue;
            }
            if (fires) {
                firing_.insert(it, key);
            } else {
                firing_.erase(it);
            }
            alert_event event;
            event.tick = tick;
            event.rule = rule.name;
            event.series = view.name;
            event.firing = fires;
            event.value = measure;
            transitions.push_back(event);
            events_.push_back(std::move(event));
        }
    }
    return transitions;
}

void alert_engine::replay(const alert_event& event) {
    const std::string key = firing_key(event.rule, event.series);
    const auto it = std::lower_bound(firing_.begin(), firing_.end(), key);
    const bool was_firing = it != firing_.end() && *it == key;
    if (event.firing && !was_firing) {
        firing_.insert(it, key);
    } else if (!event.firing && was_firing) {
        firing_.erase(it);
    }
    events_.push_back(event);
}

std::vector<std::string> alert_engine::firing() const {
    std::vector<std::string> labels;
    labels.reserve(firing_.size());
    for (const std::string& key : firing_) {
        std::string label = key;
        const std::size_t sep = label.find(firing_key_sep);
        GB_ASSERT(sep != std::string::npos);
        label[sep] = ':';
        labels.push_back(std::move(label));
    }
    return labels;
}

} // namespace gb
