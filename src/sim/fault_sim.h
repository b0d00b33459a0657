// Parallel-pattern single-fault-propagation (PPSFP) fault simulation with
// fault dropping — regenerates the paper's Tables 2/4 and Fig. 2. One
// schedule: the fault list is split into strided chunks, and each chunk
// runs the sequential drop loop over the same pattern blocks on its own
// simulator, so the result does not depend on the thread count.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fault/fault.h"
#include "netlist/netlist.h"
#include "sim/patterns.h"

namespace wrpt {

class circuit_view;

struct fault_sim_options {
    std::uint64_t max_patterns = 4096;
    /// Fault chunks run in parallel: 0 = the shared thread pool's workers
    /// plus the caller, 1 = one chunk on the caller's thread. The count is
    /// capped at the pool's workers plus the caller and at the fault
    /// count. Chunks share one compiled circuit_view and each owns a
    /// disjoint part of the fault list, so the result is identical for
    /// every value. `source` is drawn a window of blocks at a time, so a
    /// run that detects every fault early may have drawn up to one window
    /// more than it applied; every caller builds its source for one run.
    unsigned threads = 0;
};

struct fault_sim_result {
    std::uint64_t patterns_applied = 0;
    /// Per fault (parallel to the input fault list): pattern index (0-based)
    /// of first detection, or nullopt if never detected.
    std::vector<std::optional<std::uint64_t>> first_detected;
    std::size_t detected_count = 0;

    /// Fault coverage in percent over the given fault universe size.
    double coverage_percent(std::size_t universe) const {
        return universe == 0
                   ? 100.0
                   : 100.0 * static_cast<double>(detected_count) /
                         static_cast<double>(universe);
    }

    /// Number of faults detected by the first `n` patterns.
    std::size_t detected_within(std::uint64_t n) const;
};

/// Simulate `faults` against patterns from `source`.
fault_sim_result run_fault_simulation(const netlist& nl,
                                      const std::vector<fault>& faults,
                                      pattern_source& source,
                                      const fault_sim_options& options);

/// Same, over an already compiled view — the batch_session path, where
/// every job on a circuit shares one compiled view instead of each run
/// recompiling it.
fault_sim_result run_fault_simulation(const circuit_view& cv,
                                      const std::vector<fault>& faults,
                                      pattern_source& source,
                                      const fault_sim_options& options);

/// Convenience: weighted random patterns with the given weights and seed.
fault_sim_result run_weighted_fault_simulation(
    const netlist& nl, const std::vector<fault>& faults,
    const weight_vector& weights, std::uint64_t seed,
    const fault_sim_options& options);

/// Coverage curve: (pattern count, coverage percent) at power-of-two-ish
/// sample points up to patterns_applied — the data behind Fig. 2.
std::vector<std::pair<std::uint64_t, double>> coverage_curve(
    const fault_sim_result& result, std::size_t universe);

}  // namespace wrpt
