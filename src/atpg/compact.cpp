#include "atpg/compact.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "sim/fault_sim.h"
#include "sim/logic_sim.h"
#include "sim/patterns.h"
#include "util/error.h"

namespace wrpt {

compaction_result compact_test_set(
    const netlist& nl, const std::vector<fault>& faults,
    const std::vector<std::vector<bool>>& patterns) {
    compaction_result res;
    res.original_size = patterns.size();
    if (patterns.empty()) return res;
    for (const auto& p : patterns)
        require(p.size() == nl.input_count(),
                "compact_test_set: pattern width mismatch");

    // Reverse-order simulation with fault dropping: per 64-pattern block,
    // a pattern is kept iff it is the block-first detector of some still
    // undetected fault.
    simulator sim(nl);
    std::vector<std::size_t> live(faults.size());
    std::iota(live.begin(), live.end(), std::size_t{0});
    std::vector<std::uint64_t> masks;
    std::vector<bool> keep(patterns.size(), false);

    std::vector<std::uint64_t> words(nl.input_count());
    const std::size_t n = patterns.size();
    for (std::size_t base = 0; base < n && !live.empty(); base += 64) {
        const std::size_t block = std::min<std::size_t>(64, n - base);
        std::fill(words.begin(), words.end(), 0);
        for (std::size_t b = 0; b < block; ++b) {
            // Reverse order: block entry b is pattern n-1-(base+b).
            const auto& p = patterns[n - 1 - (base + b)];
            for (std::size_t i = 0; i < p.size(); ++i)
                if (p[i]) words[i] |= (1ULL << b);
        }
        sim.simulate(words);
        // Bits past the last pattern are zero padding, not patterns.
        const std::uint64_t valid =
            block == 64 ? ~0ULL : ((1ULL << block) - 1);
        masks.resize(live.size());
        sim.detect_masks(faults, live, masks);
        std::size_t still = 0;
        for (std::size_t i = 0; i < live.size(); ++i) {
            const std::uint64_t mask = masks[i] & valid;
            if (mask == 0) {
                live[still++] = live[i];
                continue;
            }
            const int bit = std::countr_zero(mask);
            keep[n - 1 - (base + static_cast<std::size_t>(bit))] = true;
        }
        live.resize(still);
    }

    for (std::size_t i = 0; i < n; ++i)
        if (keep[i]) res.patterns.push_back(patterns[i]);
    res.detected = faults.size() - live.size();
    return res;
}

}  // namespace wrpt
