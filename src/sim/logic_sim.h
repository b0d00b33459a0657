// Levelized 64-bit parallel-pattern logic simulation with event-driven
// single-fault propagation (the PPSFP kernel), over a compiled
// circuit_view.

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

    /// 64-bit mask of block patterns whose primary-output response differs
    /// under `f` from the fault-free response (event-driven levelized
    /// resimulation of the fault's fanout cone). Requires a prior
    /// simulate() call.
    std::uint64_t detect_mask(const fault& f);

    /// Word of output differences per output index (parallel to
    /// circuit().outputs()) for the last detect_mask call. Used by
    /// signature-analysis clients that need per-output faulty responses.
    std::span<const std::uint64_t> last_output_diff() const {
        return output_diff_;
    }

private:
    void init_scratch();
    std::uint64_t eval_node(node_id n);
    void schedule(node_id n);

    std::unique_ptr<const circuit_view> owned_view_;  // null when sharing
    const circuit_view* view_;
    std::vector<std::uint64_t> good_;

    // Scratch state for event-driven faulty propagation.
    std::vector<std::uint64_t> args_;  // gather buffer, max_arity words
    std::vector<std::uint64_t> faulty_;
    std::vector<std::uint8_t> has_faulty_;
    std::vector<std::uint8_t> queued_;
    std::vector<std::vector<node_id>> buckets_;  // by level
    std::vector<node_id> touched_;
    std::vector<std::uint64_t> output_diff_;
};

/// Single-pattern convenience evaluation (reference path for tests):
/// returns output values, ordered like nl.outputs().
std::vector<bool> evaluate(const netlist& nl, const std::vector<bool>& inputs);

/// Single-pattern faulty evaluation under fault `f`.
std::vector<bool> evaluate_with_fault(const netlist& nl,
                                      const std::vector<bool>& inputs,
                                      const fault& f);

}  // namespace wrpt
