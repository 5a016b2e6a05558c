#include "dram/scrubbing.hpp"

#include <algorithm>
#include <utility>

#include "util/contracts.hpp"

namespace gb {

namespace {

/// `(word << 7 | codeword bit)` of a failing cell key: re-derive the
/// address fields from the packed cell key layout (see cell_key()).  The
/// codeword bit is chip * 8 + bit and fits 7 bits.
std::uint64_t word_bit_key(std::uint64_t key) {
    // cell_key packs: dimm(3) rank(2) chip(4) bank(3) row(17) col(10) bit(3).
    const std::uint64_t bit_in_chip = key & 0x7;
    const std::uint64_t column = (key >> 3) & 0x3ff;
    const std::uint64_t row = (key >> 13) & 0x1ffff;
    const std::uint64_t bank = (key >> 30) & 0x7;
    const std::uint64_t chip = (key >> 33) & 0xf;
    const std::uint64_t rank = (key >> 37) & 0x3;
    const std::uint64_t dimm = key >> 39;

    std::uint64_t word = dimm;
    word = word << 2 | rank;
    word = word << 3 | bank;
    word = word << 17 | row;
    word = word << 10 | column;
    return word << 7 | (chip * 8 + bit_in_chip);
}

} // namespace

std::vector<scrub_analysis_point> analyze_scrub_intervals(
    const memory_system& memory, int epochs,
    const std::vector<int>& scrub_cadences, std::uint64_t seed) {
    GB_EXPECTS(epochs >= 1);
    GB_EXPECTS(!scrub_cadences.empty());

    // One cold data image; each epoch is a fresh VRT-state window.  The
    // failing sets are shared by every cadence.
    std::vector<std::vector<std::uint64_t>> per_epoch;
    per_epoch.reserve(static_cast<std::size_t>(epochs));
    for (int epoch = 0; epoch < epochs; ++epoch) {
        std::vector<std::uint64_t> keys = memory.failing_cell_keys(
            data_pattern::random_data, seed,
            seed ^ (0x9e3779b97f4a7c15ULL *
                    (static_cast<std::uint64_t>(epoch) + 1)));
        for (std::uint64_t& key : keys) {
            key = word_bit_key(key);
        }
        per_epoch.push_back(std::move(keys));
    }

    std::vector<scrub_analysis_point> results;
    results.reserve(scrub_cadences.size());
    std::vector<std::uint64_t> stale;
    for (const int cadence : scrub_cadences) {
        GB_EXPECTS(cadence >= 0);
        scrub_analysis_point point;
        point.scrub_every_epochs = cadence;

        // Stale bits accumulate within a scrub window, so a word reaches
        // two stale bits iff the window holds two distinct bits of it.
        std::vector<std::uint64_t> ue_words;
        const int window = cadence > 0 ? cadence : epochs;
        for (int first = 0; first < epochs; first += window) {
            const int last = std::min(first + window, epochs);
            stale.clear();
            for (int epoch = first; epoch < last; ++epoch) {
                const auto& keys = per_epoch[static_cast<std::size_t>(epoch)];
                stale.insert(stale.end(), keys.begin(), keys.end());
            }
            std::sort(stale.begin(), stale.end());
            stale.erase(std::unique(stale.begin(), stale.end()), stale.end());
            for (std::size_t i = 1; i < stale.size(); ++i) {
                const std::uint64_t word = stale[i] >> 7;
                if (word == stale[i - 1] >> 7 &&
                    (ue_words.empty() || ue_words.back() != word)) {
                    ue_words.push_back(word);
                }
            }
            // Patrol pass: every stale bit is corrected and rewritten.  The
            // last window is never closed by a scrub.
            if (last < epochs) {
                point.scrub_corrections += stale.size();
            }
        }
        std::sort(ue_words.begin(), ue_words.end());
        point.uncorrectable_words = static_cast<std::uint64_t>(
            std::unique(ue_words.begin(), ue_words.end()) - ue_words.begin());
        results.push_back(point);
    }
    return results;
}

} // namespace gb
