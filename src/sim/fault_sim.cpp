#include "sim/fault_sim.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <deque>

#include "core/circuit_view.h"
#include "exec/thread_pool.h"
#include "sim/logic_sim.h"
#include "util/error.h"
#include "util/sync.h"

namespace wrpt {

std::size_t fault_sim_result::detected_within(std::uint64_t n) const {
    std::size_t count = 0;
    for (const auto& fd : first_detected)
        if (fd.has_value() && *fd < n) ++count;
    return count;
}

namespace {

constexpr std::uint64_t never = ~0ULL;

/// The shared pattern window of one parallel run: blocks are drawn from
/// the (stateful, single-threaded) source lazily and in order under the
/// mutex, so workers see exactly the patterns the sequential path would.
/// `base` is the block index of blocks.front().
struct block_queue {
    wrpt::mutex mutex;
    std::deque<std::vector<std::uint64_t>> blocks WRPT_GUARDED_BY(mutex);
    std::uint64_t base WRPT_GUARDED_BY(mutex) = 0;
};

/// Sequential PPSFP with fault dropping: one simulator, blocks in order,
/// the live list shrinks as faults are detected.
fault_sim_result run_sequential(const circuit_view& cv,
                                const std::vector<fault>& faults,
                                pattern_source& source,
                                const fault_sim_options& options) {
    simulator sim(cv);
    fault_sim_result res;
    res.first_detected.assign(faults.size(), std::nullopt);

    // Live list holds indices of still-undetected faults (fault dropping).
    std::vector<std::size_t> live(faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) live[i] = i;

    std::vector<std::uint64_t> words;
    std::uint64_t applied = 0;
    while (applied < options.max_patterns && !live.empty()) {
        source.next_block(words);
        sim.simulate(words);
        const std::uint64_t block_size =
            std::min<std::uint64_t>(64, options.max_patterns - applied);
        const std::uint64_t valid_mask =
            block_size == 64 ? ~0ULL : ((1ULL << block_size) - 1);

        std::size_t keep = 0;
        for (std::size_t idx = 0; idx < live.size(); ++idx) {
            const std::size_t fi = live[idx];
            const std::uint64_t mask = sim.detect_mask(faults[fi]) & valid_mask;
            if (mask == 0) {
                live[keep++] = fi;
                continue;
            }
            res.first_detected[fi] =
                applied + static_cast<std::uint64_t>(std::countr_zero(mask));
            ++res.detected_count;
        }
        live.resize(keep);
        applied += block_size;
    }
    res.patterns_applied = applied;
    return res;
}

/// Block-parallel PPSFP: `workers` items of one parallel_for on the
/// shared thread pool (the caller runs one of them) pull 64-pattern
/// blocks off an atomic queue, each with a private simulator over the
/// shared view. Per-fault first detections combine by atomic minimum,
/// which makes the result independent of worker scheduling and identical
/// to the sequential run.
///
/// Early exit matches the sequential accounting: workers stop pulling new
/// blocks once every fault is detected. Blocks are pulled in ascending
/// index order, so by then every block below the last detecting one has
/// been (or is being) processed, and first detections are exact minima.
fault_sim_result run_parallel(const circuit_view& cv,
                              const std::vector<fault>& faults,
                              pattern_source& source,
                              const fault_sim_options& options,
                              unsigned workers) {
    const std::uint64_t block_count =
        (options.max_patterns + 63) / 64;
    const std::size_t input_count = cv.input_count();

    // Consumed blocks (moved out, hence empty) are popped from the
    // window's front, bounding live memory to the not-yet-pulled window —
    // without materializing blocks the run may never reach.
    block_queue window;

    std::vector<std::atomic<std::uint64_t>> first(faults.size());
    for (auto& f : first) f.store(never, std::memory_order_relaxed);
    std::atomic<std::uint64_t> next_block{0};
    std::atomic<std::size_t> undetected{faults.size()};

    auto worker_body = [&]() {
        simulator sim(cv);
        for (;;) {
            if (undetected.load(std::memory_order_acquire) == 0) return;
            const std::uint64_t b =
                next_block.fetch_add(1, std::memory_order_relaxed);
            if (b >= block_count) return;
            // The puller of block b is its sole consumer: move the words
            // out and drop the emptied leading slots.
            std::vector<std::uint64_t> words;
            {
                lock_guard lock(window.mutex);
                while (window.base + window.blocks.size() <= b) {
                    std::vector<std::uint64_t>& fresh =
                        window.blocks.emplace_back();
                    source.next_block(fresh);
                    require(fresh.size() == input_count,
                            "fault sim: pattern source word count != "
                            "input count");
                }
                words = std::move(
                    window.blocks[static_cast<std::size_t>(b - window.base)]);
                while (!window.blocks.empty() &&
                       window.blocks.front().empty()) {
                    window.blocks.pop_front();
                    ++window.base;
                }
            }
            const std::uint64_t block_start = b * 64;
            const std::uint64_t block_size = std::min<std::uint64_t>(
                64, options.max_patterns - block_start);
            const std::uint64_t valid_mask =
                block_size == 64 ? ~0ULL : ((1ULL << block_size) - 1);
            sim.simulate(words);
            for (std::size_t fi = 0; fi < faults.size(); ++fi) {
                // Fault dropping across blocks: a detection in an earlier
                // block can never be improved by this one.
                if (first[fi].load(std::memory_order_relaxed) < block_start)
                    continue;
                const std::uint64_t mask =
                    sim.detect_mask(faults[fi]) & valid_mask;
                if (mask == 0) continue;
                const std::uint64_t t =
                    block_start +
                    static_cast<std::uint64_t>(std::countr_zero(mask));
                std::uint64_t cur = first[fi].load(std::memory_order_relaxed);
                bool claimed = false;
                while (t < cur) {
                    if (first[fi].compare_exchange_weak(
                            cur, t, std::memory_order_relaxed)) {
                        claimed = cur == never;
                        break;
                    }
                }
                if (claimed)
                    undetected.fetch_sub(1, std::memory_order_release);
            }
        }
    };

    // The pool rethrows the first worker error on the caller's thread, so
    // the parallel path surfaces the same catchable errors (bad pattern
    // source, word-count mismatch) the sequential path does.
    shared_thread_pool().parallel_for(workers, [&](std::size_t) {
        try {
            worker_body();
        } catch (...) {
            // Drain the queue so the other workers wind down promptly.
            next_block.store(block_count, std::memory_order_relaxed);
            throw;
        }
    });

    fault_sim_result res;
    res.first_detected.assign(faults.size(), std::nullopt);
    std::uint64_t last = 0;
    bool all_detected = true;
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
        const std::uint64_t t = first[fi].load(std::memory_order_relaxed);
        if (t == never) {
            all_detected = false;
            continue;
        }
        res.first_detected[fi] = t;
        ++res.detected_count;
        last = std::max(last, t);
    }
    // Mirror the sequential accounting: the run stops after the block in
    // which the live list drained; otherwise the full budget is applied.
    if (all_detected)
        res.patterns_applied =
            std::min<std::uint64_t>(options.max_patterns, (last / 64 + 1) * 64);
    else
        res.patterns_applied = options.max_patterns;
    return res;
}

}  // namespace

fault_sim_result run_fault_simulation(const circuit_view& cv,
                                      const std::vector<fault>& faults,
                                      pattern_source& source,
                                      const fault_sim_options& options) {
    require(options.max_patterns > 0, "fault sim: max_patterns must be > 0");
    // 0 = the shared pool's workers plus the caller. No point running
    // more workers (each with its own simulator scratch) than there are
    // 64-pattern blocks.
    const unsigned threads =
        options.threads == 0 ? shared_thread_pool().size() + 1
                             : options.threads;
    const std::uint64_t block_count = (options.max_patterns + 63) / 64;
    const unsigned workers =
        static_cast<unsigned>(std::min<std::uint64_t>(threads, block_count));
    if (workers <= 1 || faults.empty())
        return run_sequential(cv, faults, source, options);
    return run_parallel(cv, faults, source, options, workers);
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
