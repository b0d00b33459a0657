#include "sim/fault_sim.h"

#include <algorithm>
#include <bit>
#include <span>

#include "core/circuit_view.h"
#include "exec/thread_pool.h"
#include "sim/logic_sim.h"
#include "util/error.h"

namespace wrpt {

std::size_t fault_sim_result::detected_within(std::uint64_t n) const {
    std::size_t count = 0;
    for (const auto& fd : first_detected)
        if (fd.has_value() && *fd < n) ++count;
    return count;
}

namespace {

/// Blocks drawn from the source per round: each round is one parallel_for
/// over the fault chunks, so the window trades the source's draw-ahead
/// against the per-round join.
constexpr std::size_t window_blocks = 64;

/// One fault chunk: a private simulator over the shared view and the
/// live (still undetected) fault indices it owns.
struct chunk {
    simulator sim;
    std::vector<std::size_t> live;
    std::uint64_t applied = 0;
};

/// PPSFP with fault dropping over one window: blocks in order, the live
/// list shrinks as faults are detected. A fault's first detection depends
/// on no other fault, so running each chunk alone gives the result of
/// running every fault in one list.
void run_window(chunk& c, const std::vector<fault>& faults,
                std::span<const std::vector<std::uint64_t>> window,
                std::uint64_t max_patterns,
                std::vector<std::optional<std::uint64_t>>& first_detected) {
    for (const auto& words : window) {
        if (c.live.empty()) return;
        c.sim.simulate(words);
        const std::uint64_t block_size =
            std::min<std::uint64_t>(64, max_patterns - c.applied);
        const std::uint64_t valid_mask =
            block_size == 64 ? ~0ULL : ((1ULL << block_size) - 1);

        std::size_t keep = 0;
        for (const std::size_t fi : c.live) {
            const std::uint64_t mask =
                c.sim.detect_mask(faults[fi]) & valid_mask;
            if (mask == 0) {
                c.live[keep++] = fi;
                continue;
            }
            first_detected[fi] =
                c.applied + static_cast<std::uint64_t>(std::countr_zero(mask));
        }
        c.live.resize(keep);
        c.applied += block_size;
    }
}

}  // namespace

/// Fault-partitioned PPSFP. Chunk c owns faults c, c+k, c+2k, … (strided,
/// which balances the load). The caller draws a window of blocks from the
/// single-threaded source, then the chunks run over it as the items of one
/// parallel_for on the shared pool. Chunks write disjoint first_detected
/// entries, so the result is the same for every k; threads 1 is k = 1.
fault_sim_result run_fault_simulation(const circuit_view& cv,
                                      const std::vector<fault>& faults,
                                      pattern_source& source,
                                      const fault_sim_options& options) {
    require(options.max_patterns > 0, "fault sim: max_patterns must be > 0");
    // 0 = the shared pool's workers plus the caller. k = 1 runs on the
    // caller alone and leaves the pool untouched.
    std::size_t k = std::min<std::size_t>(
        options.threads == 0 ? faults.size() : options.threads, faults.size());
    if (k > 1) k = std::min<std::size_t>(k, shared_thread_pool().size() + 1);
    k = std::max<std::size_t>(k, 1);

    std::vector<chunk> chunks;
    chunks.reserve(k);
    for (std::size_t c = 0; c < k; ++c) {
        chunks.push_back({simulator(cv), {}});
        for (std::size_t fi = c; fi < faults.size(); fi += k)
            chunks.back().live.push_back(fi);
    }

    fault_sim_result res;
    res.first_detected.assign(faults.size(), std::nullopt);
    std::vector<std::vector<std::uint64_t>> window(window_blocks);
    std::uint64_t drawn = 0;
    const auto any_live = [&] {
        return std::any_of(chunks.begin(), chunks.end(),
                           [](const chunk& c) { return !c.live.empty(); });
    };
    while (drawn < options.max_patterns && any_live()) {
        std::size_t blocks = 0;
        for (; blocks < window_blocks && drawn < options.max_patterns;
             ++blocks, drawn += 64)
            source.next_block(window[blocks]);
        const auto body = [&](std::size_t c) {
            run_window(chunks[c], faults, std::span(window).first(blocks),
                       options.max_patterns, res.first_detected);
        };
        if (k == 1)
            body(0);
        else
            shared_thread_pool().parallel_for(k, body);
    }
    for (const chunk& c : chunks)
        res.patterns_applied = std::max(res.patterns_applied, c.applied);
    res.detected_count = res.detected_within(res.patterns_applied);
    return res;
}

fault_sim_result run_fault_simulation(const netlist& nl,
                                      const std::vector<fault>& faults,
                                      pattern_source& source,
                                      const fault_sim_options& options) {
    const circuit_view cv = circuit_view::compile(nl);
    return run_fault_simulation(cv, faults, source, options);
}

fault_sim_result run_weighted_fault_simulation(
    const netlist& nl, const std::vector<fault>& faults,
    const weight_vector& weights, std::uint64_t seed,
    const fault_sim_options& options) {
    require(weights.size() == nl.input_count(),
            "fault sim: weight count != input count");
    weighted_random_source source(weights, seed);
    return run_fault_simulation(nl, faults, source, options);
}

std::vector<std::pair<std::uint64_t, double>> coverage_curve(
    const fault_sim_result& result, std::size_t universe) {
    std::vector<std::pair<std::uint64_t, double>> curve;
    std::uint64_t n = 16;
    while (n < result.patterns_applied) {
        curve.emplace_back(n, 100.0 *
                                  static_cast<double>(result.detected_within(n)) /
                                  static_cast<double>(universe == 0 ? 1 : universe));
        n *= 2;
    }
    curve.emplace_back(result.patterns_applied,
                       100.0 *
                           static_cast<double>(
                               result.detected_within(result.patterns_applied)) /
                           static_cast<double>(universe == 0 ? 1 : universe));
    return curve;
}

}  // namespace wrpt
