// Levelized 64-bit parallel-pattern logic simulation and exact
// parallel-pattern stuck-at detection over a compiled circuit_view.
//
// Detection works per fanout-free region (FFR), after Abramovici, Menon &
// Miller's critical path tracing. Inside an FFR a fault's effect reaches
// the region's stem along one path, so the patterns on which it flips the
// stem follow from the fault-free values alone: its local flip at the
// site, masked by the site's sensitization to the stem. Every stem whose
// faults flip it on some pattern is then propagated once, event-driven,
// to find the patterns on which that flip reaches a primary output.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/circuit_view.h"
#include "fault/fault.h"
#include "netlist/netlist.h"

namespace wrpt {

/// Compiled simulator for one netlist. One machine word carries 64 patterns.
///
/// All traversal structure comes from a circuit_view; the view-sharing
/// constructor lets many simulators (one per worker thread) run over the
/// same compiled view without rebuilding it.
class simulator {
public:
    /// Compile a private view of `nl` (which must outlive the simulator).
    explicit simulator(const netlist& nl);
    /// Share an already compiled view (which must outlive the simulator).
    explicit simulator(const circuit_view& view);

    const netlist& circuit() const { return view_->source(); }
    const circuit_view& view() const { return *view_; }

    /// Simulate a block of 64 patterns. `input_words` has one word per
    /// primary input, ordered like netlist::inputs(); bit b of each word is
    /// pattern b of the block. All node values become available.
    void simulate(std::span<const std::uint64_t> input_words);

    /// Fault-free value words after simulate().
    std::uint64_t value(node_id n) const { return good_[n]; }
    std::span<const std::uint64_t> values() const { return good_; }

    /// out[i] = 64-bit mask of block patterns whose primary-output
    /// response differs under faults[live[i]] from the fault-free one.
    /// Exact for single stuck-at faults, and each mask depends on its
    /// fault alone, whatever else `live` holds. Each FFR stem is
    /// propagated at most once per call. Requires a prior simulate().
    void detect_masks(std::span<const fault> faults,
                      std::span<const std::size_t> live,
                      std::span<std::uint64_t> out);

private:
    void init_scratch();
    std::uint64_t eval_node(node_id n);
    void schedule(node_id n);
    /// Patterns on which n flips its FFR stem when n itself flips.
    std::uint64_t sensitivity(node_id n);
    /// Force `value` on node n and propagate it event-driven; returns the
    /// patterns on which some primary output differs.
    std::uint64_t propagate(node_id n, std::uint64_t value);

    std::unique_ptr<const circuit_view> owned_view_;  // null when sharing
    const circuit_view* view_;
    std::vector<std::uint64_t> good_;

    // Sensitization memo, valid where sens_stamp_ == stamp_ (one stamp
    // per simulated block).
    std::vector<std::uint64_t> sens_;
    std::vector<std::uint32_t> sens_stamp_;
    std::uint32_t stamp_ = 0;
    std::vector<node_id> chain_;

    // Per-stem flip union, then observability, for one detect_masks call.
    std::vector<std::uint64_t> flip_;
    std::vector<node_id> stems_;

    // Scratch state for event-driven faulty propagation.
    std::vector<std::uint64_t> faulty_;
    std::vector<std::uint8_t> has_faulty_;
    std::vector<std::uint8_t> queued_;
    std::vector<std::vector<node_id>> buckets_;  // by level
    std::size_t pending_ = 0;                    // queued, not yet popped
    std::vector<node_id> touched_;
};

/// Single-pattern evaluation (scalar reference path): returns output
/// values, ordered like nl.outputs().
std::vector<bool> evaluate(const netlist& nl, const std::vector<bool>& inputs);

/// Single-pattern faulty evaluation under fault `f`.
std::vector<bool> evaluate_with_fault(const netlist& nl,
                                      const std::vector<bool>& inputs,
                                      const fault& f);

}  // namespace wrpt
