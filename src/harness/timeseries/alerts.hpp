// Rule-driven alert engine over the deterministic time-series layer.
//
// Related work argues guardband characterization must be *continuous*
// (Papadimitriou et al.) because safe margins move with long-running
// operating conditions (Nascimento et al.).  This module closes that loop:
// small declarative rules watch the recorder's series -- per-cohort Vmin,
// `health.*`, `integrity.*`, cache hit-rate, degraded-cohort counts -- and
// fire deterministic alert events that ride the fleet journal and the
// `timeline.json` artifact.
//
// Rule spec grammar (one rule per line, '#' comments, blank lines
// ignored):
//
//   alert <name> <series> above <value>
//   alert <name> <series> below <value>
//   alert <name> <series> delta <value> window <N>
//   alert <name> <series> slope <value> window <N>
//
// `<series>` is an exact series name or a '*'-terminated prefix wildcard
// (`vmin.*`).  `above`/`below` compare the latest sample (fires when
// last >= / <= value).  `delta` measures last - first over the trailing
// window; `slope` is the least-squares slope over the trailing window
// (value per sample step).  Both fire when the signed measure reaches the
// threshold: measure >= value for value >= 0, measure <= value for
// value < 0 -- so `delta 5 window 4` alerts on a rise and `delta -5
// window 4` on a drop.  Parse errors carry path:line diagnostics and the
// CLI maps them to exit 2.
//
// Evaluation is a pure function of the series content plus the previous
// firing set, and both inputs replay from the journal, so a restarted
// daemon's alert state converges bitwise with an uninterrupted run's.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "harness/timeseries/timeseries.hpp"

namespace gb {

struct alert_rule {
    enum class op_kind : std::uint8_t { above, below, delta, slope };

    std::string name;
    std::string series; ///< exact name or '*'-terminated prefix
    op_kind op = op_kind::above;
    double threshold = 0.0;
    std::size_t window = 0; ///< delta/slope only (>= 2)

    /// True when `series_name` is watched by this rule.
    [[nodiscard]] bool matches(std::string_view series_name) const;
};

[[nodiscard]] std::string_view to_string(alert_rule::op_kind op);

/// Parse a rule spec.  On failure returns nullopt with a one-line
/// `<path>:<line>: <message>` diagnostic in `error`.
[[nodiscard]] std::optional<std::vector<alert_rule>> parse_alert_rules(
    std::string_view text, std::string_view path, std::string& error);

/// Read and parse a rule-spec file.
[[nodiscard]] std::optional<std::vector<alert_rule>> load_alert_rules_file(
    const std::string& path, std::string& error);

/// A stateless evaluation result: a (rule, series) pair currently over
/// threshold, with its measure.
struct alert_match {
    const alert_rule* rule = nullptr;
    std::string series;
    double value = 0.0;
};

/// Evaluate rules over a name-sorted series view with no transition
/// state -- the `gbreport alerts` engine.  Matches come back in (rule
/// order, series order): deterministic for deterministic inputs.
[[nodiscard]] std::vector<alert_match> evaluate_alert_rules(
    std::span<const alert_rule> rules,
    const std::vector<series_snapshot>& series);

class alert_engine {
public:
    explicit alert_engine(std::vector<alert_rule> rules = {});

    [[nodiscard]] const std::vector<alert_rule>& rules() const {
        return rules_;
    }

    /// Evaluate every rule over the series view at `tick`; transitions
    /// against the previous firing set are appended to the event history
    /// and returned.  Serial call sites only.
    std::vector<alert_event> evaluate(
        const std::vector<series_snapshot>& series, std::uint64_t tick);

    /// Warm replay of a journaled event: restores firing state and event
    /// history without evaluating.
    void replay(const alert_event& event);

    /// Currently-firing pairs as sorted unique "rule:series" labels.
    [[nodiscard]] std::vector<std::string> firing() const;
    [[nodiscard]] std::size_t firing_count() const { return firing_.size(); }
    /// Every transition observed (or replayed), in order.
    [[nodiscard]] const std::vector<alert_event>& events() const {
        return events_;
    }

private:
    std::vector<alert_rule> rules_;
    /// Firing keys "rule\x1fseries", kept sorted.
    std::vector<std::string> firing_;
    std::vector<alert_event> events_;
};

} // namespace gb
