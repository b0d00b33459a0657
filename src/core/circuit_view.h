// Compiled circuit view: one immutable, levelized, structure-of-arrays
// representation of a netlist shared by every analysis layer.
//
// The paper's whole pipeline — signal probabilities, fault detection
// profiles, the coordinate-descent OPTIMIZE loop — is repeated traversals
// of the same combinational network. The view compiles the traversal
// structure once: flat CSR fanin/fanout arrays, level buckets for
// event-driven wavefronts, the fanout-free region (FFR) stem of every
// node, which lets fault simulation trace a fault to its stem and
// propagate each stem once, and (optionally) the precomputed transitive
// fanout cone of every primary input, which turns the optimizer's
// per-input re-analysis from O(nodes) into O(cone).
//
// A view is immutable after compile() and safe to share across threads;
// the fault simulator hands one view to every fault chunk.
// Node ids are dense and topologically ordered (inherited from netlist
// construction), so ascending id order is a forward sweep and descending
// id order a backward sweep.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.h"

namespace wrpt {

class circuit_view {
public:
    struct compile_options {
        /// Precompute the transitive fanout cone of every primary input
        /// (the optimizer's incremental COP engine needs them; throwaway
        /// simulator views do not).
        bool input_cones = false;
        /// Precompute the stem -> driven-pin transpose the COP backward
        /// passes fold over. Worth it for views reused across many
        /// backward sweeps (the incremental engine); throwaway simulator
        /// views skip it.
        bool driven_pins = false;
    };

    /// Compile a view of `nl`. The netlist must outlive the view and stay
    /// structurally unchanged (the view keeps no reference into netlist
    /// internals, but source() returns the original).
    static circuit_view compile(const netlist& nl);
    static circuit_view compile(const netlist& nl,
                                const compile_options& options);

    const netlist& source() const { return *nl_; }

    // --- nodes -----------------------------------------------------------

    std::size_t node_count() const { return kind_.size(); }
    gate_kind kind(node_id n) const { return kind_[n]; }
    std::uint32_t level(node_id n) const { return level_[n]; }
    std::size_t depth() const { return depth_; }
    std::size_t max_arity() const { return max_arity_; }

    std::span<const node_id> fanins(node_id n) const {
        return {fanin_pool_.data() + fanin_offset_[n],
                fanin_pool_.data() + fanin_offset_[n + 1]};
    }
    std::size_t fanin_count(node_id n) const {
        return fanin_offset_[n + 1] - fanin_offset_[n];
    }
    std::span<const node_id> fanouts(node_id n) const {
        return {fanout_pool_.data() + fanout_offset_[n],
                fanout_pool_.data() + fanout_offset_[n + 1]};
    }
    std::size_t fanout_count(node_id n) const {
        return fanout_offset_[n + 1] - fanout_offset_[n];
    }

    /// Fanin pins are numbered globally: pin_offset(n) + k identifies
    /// fanin pin k of node n. pin_count() is the total (== fanin edges).
    std::uint32_t pin_offset(node_id n) const { return fanin_offset_[n]; }
    std::uint32_t pin_count() const {
        return static_cast<std::uint32_t>(fanin_pool_.size());
    }
    /// The full pin offset array (size node_count + 1), for result
    /// structures that carry their own copy of the pin layout.
    std::span<const std::uint32_t> pin_offsets() const {
        return fanin_offset_;
    }

    /// Global pin indices fed by node n's stem — the transpose of the
    /// fanin pin map, in the order a scan over fanouts(n) and each
    /// consumer's fanins would visit them (a consumer using the stem on
    /// several pins contributes its matching pins once per driving edge).
    /// Backward passes fold over this list instead of re-scanning
    /// consumer fanin arrays. Requires compile_options::driven_pins.
    bool has_driven_pins() const { return !driven_offset_.empty(); }
    std::span<const std::uint32_t> driven_pins(node_id n) const {
        return {driven_pool_.data() + driven_offset_[n],
                driven_pool_.data() + driven_offset_[n + 1]};
    }

    /// Stem of the fanout-free region containing n. A node is its own
    /// stem when it drives other than exactly one fanin edge or is a
    /// primary output; otherwise its stem is the stem of its single
    /// fanout. Every path from n to an output passes through the stem.
    node_id ffr_stem(node_id n) const { return ffr_stem_[n]; }
    bool is_stem(node_id n) const { return ffr_stem_[n] == n; }

    /// Nodes of logic level l, ascending node id. l <= depth().
    std::span<const node_id> nodes_at_level(std::size_t l) const {
        return {level_nodes_.data() + level_offset_[l],
                level_nodes_.data() + level_offset_[l + 1]};
    }

    // --- primary inputs / outputs ---------------------------------------

    std::span<const node_id> inputs() const { return inputs_; }
    std::span<const node_id> outputs() const { return outputs_; }
    std::size_t input_count() const { return inputs_.size(); }
    std::size_t output_count() const { return outputs_.size(); }

    bool is_output(node_id n) const { return is_output_[n] != 0; }

    /// Index of a primary input node within inputs(), or SIZE_MAX.
    std::size_t input_index(node_id n) const {
        const std::uint32_t i = input_index_[n];
        return i == no_index ? static_cast<std::size_t>(-1) : i;
    }

    // --- precomputed input cones -----------------------------------------

    bool has_input_cones() const { return !cone_offset_.empty(); }

    /// Mean fanout-cone size over all inputs as a fraction of node_count —
    /// the crossover signal for cone-restricted vs full re-analysis.
    /// Requires compile_options::input_cones.
    double mean_cone_fraction() const {
        if (cone_pool_.empty() || inputs_.empty() || kind_.empty()) return 1.0;
        return static_cast<double>(cone_pool_.size()) /
               (static_cast<double>(inputs_.size()) *
                static_cast<double>(kind_.size()));
    }

    /// Transitive fanout cone of primary input `input_idx` (an index into
    /// inputs()), including the input node itself, ascending node id
    /// (= topological) order. Requires compile_options::input_cones.
    std::span<const node_id> input_cone(std::size_t input_idx) const;

private:
    static constexpr std::uint32_t no_index = 0xffffffffu;

    const netlist* nl_ = nullptr;

    std::vector<gate_kind> kind_;
    std::vector<std::uint32_t> level_;
    std::vector<std::uint32_t> fanin_offset_;   // size node_count + 1
    std::vector<node_id> fanin_pool_;
    std::vector<std::uint32_t> fanout_offset_;  // size node_count + 1
    std::vector<node_id> fanout_pool_;
    std::vector<std::uint32_t> level_offset_;   // size depth + 2
    std::vector<node_id> level_nodes_;
    std::vector<node_id> ffr_stem_;
    std::vector<std::uint32_t> driven_offset_;  // size node_count + 1
    std::vector<std::uint32_t> driven_pool_;

    std::vector<node_id> inputs_;
    std::vector<node_id> outputs_;
    std::vector<std::uint8_t> is_output_;
    std::vector<std::uint32_t> input_index_;    // per node, no_index if gate

    std::vector<std::uint32_t> cone_offset_;    // size input_count + 1
    std::vector<node_id> cone_pool_;

    std::size_t depth_ = 0;
    std::size_t max_arity_ = 0;
};

// --- shared sweep shapes -----------------------------------------------------
//
// Node ids are topologically ordered, so the two sweep shapes every
// analysis uses are plain id loops; naming them keeps the intent visible
// at call sites and concentrates the iteration contract in one place.

/// Visit every node in topological (fanin-before-gate) order.
template <class Visit>
void forward_sweep(const circuit_view& cv, Visit&& visit) {
    const node_id n = static_cast<node_id>(cv.node_count());
    for (node_id i = 0; i < n; ++i) visit(i);
}

/// Visit every node in reverse topological (fanout-before-stem) order.
template <class Visit>
void backward_sweep(const circuit_view& cv, Visit&& visit) {
    for (node_id i = static_cast<node_id>(cv.node_count()); i-- > 0;) visit(i);
}

}  // namespace wrpt
