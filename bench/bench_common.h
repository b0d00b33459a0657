// Shared helpers for the experiment benches.

#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "atpg/podem.h"
#include "exec/thread_pool.h"
#include "fault/fault.h"
#include "gen/suite.h"
#include "io/weights_io.h"
#include "netlist/netlist.h"
#include "sim/fault_sim.h"

namespace wrpt::bench {

/// Fault universe for coverage accounting: the full single-stuck-at list
/// minus faults *proven* redundant (the paper's Table 2 accounting). The
/// proof is a bounded PODEM pass over the faults a quick random-pattern
/// prefilter (simulated on `pool`) could not detect; aborted faults stay
/// in the universe.
struct accounted_faults {
    std::vector<fault> faults;       ///< full fault list
    std::vector<bool> redundant;     ///< proven-undetectable flags
    std::size_t redundant_count = 0;
    std::size_t aborted_count = 0;

    std::size_t universe() const { return faults.size() - redundant_count; }

    /// Coverage in percent of the non-redundant universe, given the
    /// fault-sim result over the full list.
    double coverage_percent(const fault_sim_result& sim) const {
        std::size_t detected = 0;
        for (std::size_t i = 0; i < faults.size(); ++i)
            if (sim.first_detected[i].has_value() && !redundant[i]) ++detected;
        return universe() == 0 ? 100.0
                               : 100.0 * static_cast<double>(detected) /
                                     static_cast<double>(universe());
    }
};

inline accounted_faults account_faults(const netlist& nl, thread_pool& pool,
                                       std::size_t backtrack_limit = 64) {
    accounted_faults out;
    out.faults = generate_full_faults(nl);
    out.redundant.assign(out.faults.size(), false);

    // Random prefilter: anything detected is certainly not redundant.
    fault_sim_options fo;
    fo.max_patterns = 2048;
    fo.pool = &pool;
    const fault_sim_result pre = run_weighted_fault_simulation(
        nl, out.faults, uniform_weights(nl), 0xacc0, fo);

    std::vector<fault> open;
    std::vector<std::size_t> open_index;
    for (std::size_t i = 0; i < out.faults.size(); ++i) {
        if (!pre.first_detected[i].has_value()) {
            open.push_back(out.faults[i]);
            open_index.push_back(i);
        }
    }
    podem_options po;
    po.backtrack_limit = backtrack_limit;
    const fault_classification cls = classify_faults(nl, open, po);
    for (std::size_t k = 0; k < open.size(); ++k) {
        if (cls.status[k] == podem_status::redundant) {
            out.redundant[open_index[k]] = true;
            ++out.redundant_count;
        } else if (cls.status[k] == podem_status::aborted) {
            ++out.aborted_count;
        }
    }
    return out;
}

}  // namespace wrpt::bench
