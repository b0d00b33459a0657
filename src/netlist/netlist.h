// Combinational netlist container.
//
// Storage is structure-of-arrays keyed by dense node ids. Construction is
// incremental and enforces topological order (fanins must already exist),
// so the netlist is acyclic by construction and node ids double as a
// topological order. Levels, fanout lists and cones are derived lazily.

#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/gate.h"
#include "util/sync.h"

namespace wrpt {

/// Per-kind gate census and other structural statistics.
struct netlist_stats {
    std::size_t node_count = 0;    ///< all nodes including primary inputs
    std::size_t input_count = 0;
    std::size_t output_count = 0;
    std::size_t gate_count = 0;    ///< nodes that are not primary inputs
    std::size_t line_count = 0;    ///< stems + fanout branches (fault sites)
    std::size_t depth = 0;         ///< maximum logic level
    std::vector<std::size_t> per_kind;  ///< indexed by gate_kind value
};

/// A combinational gate-level network.
class netlist {
public:
    netlist() = default;
    explicit netlist(std::string name) : name_(std::move(name)) {}

    // --- construction ----------------------------------------------------

    /// Add a primary input. Names must be unique and non-empty.
    node_id add_input(const std::string& name);

    /// Add a gate over already existing fanins. Name optional, but unique
    /// if given. Returns the new node id.
    node_id add_gate(gate_kind kind, std::span<const node_id> fanins,
                     const std::string& name = {});

    /// Convenience overloads for fixed small arities.
    node_id add_gate(gate_kind kind, std::initializer_list<node_id> fanins,
                     const std::string& name = {});
    node_id add_unary(gate_kind kind, node_id a, const std::string& name = {});
    node_id add_binary(gate_kind kind, node_id a, node_id b,
                       const std::string& name = {});

    /// Add a constant node.
    node_id add_const(bool value, const std::string& name = {});

    /// Declare `node` a primary output under `name` (unique, non-empty).
    void mark_output(node_id node, const std::string& name);

    /// Balanced reduction tree of `kind` over `leaves` (>= 1 leaf).
    /// For a single leaf returns it unchanged (inverting kinds insert the
    /// inversion).
    node_id add_tree(gate_kind kind, std::span<const node_id> leaves);

    // --- accessors --------------------------------------------------------

    const std::string& name() const { return name_; }
    void set_name(std::string n) { name_ = std::move(n); }

    /// Structural revision stamp: process-unique, re-stamped on every
    /// structural mutation (copies keep their source's stamp — they are
    /// structurally identical). Lets analysis caches key on netlist
    /// identity without address-reuse or in-place-mutation hazards.
    std::uint64_t revision() const { return revision_; }

    std::size_t node_count() const { return kinds_.size(); }
    gate_kind kind(node_id n) const { return kinds_[n]; }
    std::span<const node_id> fanins(node_id n) const;
    std::size_t fanin_count(node_id n) const;

    const std::vector<node_id>& inputs() const { return inputs_; }
    const std::vector<node_id>& outputs() const { return outputs_; }
    std::size_t input_count() const { return inputs_.size(); }
    std::size_t output_count() const { return outputs_.size(); }

    /// Index of a primary input node within inputs(), or SIZE_MAX.
    std::size_t input_index(node_id n) const;

    /// True if `n` is marked as a primary output.
    bool is_output(node_id n) const;

    /// Node name; empty string if the node is unnamed.
    const std::string& node_name(node_id n) const;
    /// Name under which the node is exported as output (empty if none).
    const std::string& output_name(node_id n) const;

    /// Find a node by its (gate or input) name; null_node if absent.
    node_id find(const std::string& name) const;

    // --- derived structure -------------------------------------------------

    /// Logic level: 0 for inputs/constants, else 1 + max fanin level.
    std::size_t level(node_id n) const;
    std::size_t depth() const;

    /// Fanout list of a node (gates that consume it). Built lazily.
    /// Outside the lock analysis: the fast path reads offset/pool without
    /// the build mutex, made safe by the release-store of `built` in
    /// ensure_fanouts() paired with its acquire-load here (publication,
    /// not mutual exclusion — once built, the arrays are immutable).
    std::span<const node_id> fanouts(node_id n) const
        WRPT_NO_THREAD_SAFETY_ANALYSIS;
    std::size_t fanout_count(node_id n) const { return fanouts(n).size(); }

    /// Transitive fanin set (including `n` itself), as sorted node ids.
    std::vector<node_id> fanin_cone(node_id n) const;
    /// Transitive fanout set (including `n` itself), as sorted node ids.
    std::vector<node_id> fanout_cone(node_id n) const;

    netlist_stats stats() const;

    /// Validate structural invariants (arities, unique names, outputs
    /// exist). Throws invalid_input on violation.
    void validate() const;

private:
    void ensure_fanouts() const;
    node_id new_node(gate_kind kind, std::span<const node_id> fanins,
                     const std::string& name);
    static std::uint64_t next_revision();

    std::string name_;
    std::uint64_t revision_ = next_revision();

    // Structure of arrays over node id.
    std::vector<gate_kind> kinds_;
    std::vector<std::uint32_t> fanin_offset_;  // into fanin_pool_, size n+1
    std::vector<node_id> fanin_pool_;
    std::vector<std::uint32_t> levels_;
    std::vector<std::string> node_names_;

    std::vector<node_id> inputs_;
    std::vector<node_id> outputs_;
    std::unordered_map<node_id, std::string> output_names_;
    std::unordered_map<std::string, node_id> by_name_;
    std::unordered_map<node_id, std::size_t> input_index_;

    // Lazy fanout structure with a double-checked build: const accessors
    // (fanouts, fanout_cone, stats) may be called concurrently — the
    // fault simulator's chunks do — so the build is guarded by a
    // mutex behind an atomic fast path. Mutation (add_*) stays
    // single-threaded by contract and just invalidates the flag.
    // The wrapper restores copy/move for netlist (atomics have neither).
    struct lazy_fanouts {
        mutable wrpt::mutex build_mutex;
        // offset/pool are written only by the build (under build_mutex)
        // and published by the `built` release-store; readers on the
        // acquire fast path (netlist::fanouts) see them complete without
        // the lock — that one reader opts out of the analysis, every
        // writer is checked.
        std::vector<std::uint32_t> offset WRPT_GUARDED_BY(build_mutex);
        std::vector<node_id> pool WRPT_GUARDED_BY(build_mutex);
        std::atomic<bool> built{false};

        lazy_fanouts() = default;
        // Copying locks the source: copying a netlist is a const operation
        // and may race with a concurrent lazy build on the source. The
        // destination is under construction / exclusively owned, so its
        // own members are written without its lock — outside the analysis.
        lazy_fanouts(const lazy_fanouts& other)
            WRPT_NO_THREAD_SAFETY_ANALYSIS {
            lock_guard lock(other.build_mutex);
            offset = other.offset;
            pool = other.pool;
            built.store(other.built.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
        }
        // Moving mutates the source, which the caller must already have
        // exclusive access to; no locking needed (and none analyzable).
        lazy_fanouts(lazy_fanouts&& other) noexcept
            WRPT_NO_THREAD_SAFETY_ANALYSIS
            : offset(std::move(other.offset)),
              pool(std::move(other.pool)),
              built(other.built.load(std::memory_order_relaxed)) {}
        lazy_fanouts& operator=(const lazy_fanouts& other)
            WRPT_NO_THREAD_SAFETY_ANALYSIS {
            if (this == &other) return *this;
            lock_guard lock(other.build_mutex);
            offset = other.offset;
            pool = other.pool;
            built.store(other.built.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
            return *this;
        }
        lazy_fanouts& operator=(lazy_fanouts&& other) noexcept
            WRPT_NO_THREAD_SAFETY_ANALYSIS {
            offset = std::move(other.offset);
            pool = std::move(other.pool);
            built.store(other.built.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
            return *this;
        }
    };
    mutable lazy_fanouts fanouts_cache_;
};

}  // namespace wrpt
