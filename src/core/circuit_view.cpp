#include "core/circuit_view.h"

#include <algorithm>

#include "util/error.h"

namespace wrpt {

circuit_view circuit_view::compile(const netlist& nl) {
    return compile(nl, compile_options{});
}

circuit_view circuit_view::compile(const netlist& nl,
                                   const compile_options& options) {
    nl.validate();
    circuit_view cv;
    cv.nl_ = &nl;

    const std::size_t n = nl.node_count();
    cv.kind_.resize(n);
    cv.level_.resize(n);
    cv.fanin_offset_.assign(n + 1, 0);
    cv.is_output_.assign(n, 0);
    cv.input_index_.assign(n, no_index);

    for (node_id id = 0; id < n; ++id) {
        cv.kind_[id] = nl.kind(id);
        cv.level_[id] = static_cast<std::uint32_t>(nl.level(id));
        cv.depth_ = std::max<std::size_t>(cv.depth_, cv.level_[id]);
        const auto fi = nl.fanins(id);
        cv.max_arity_ = std::max(cv.max_arity_, fi.size());
        cv.fanin_offset_[id + 1] =
            cv.fanin_offset_[id] + static_cast<std::uint32_t>(fi.size());
    }
    cv.fanin_pool_.resize(cv.fanin_offset_[n]);
    for (node_id id = 0; id < n; ++id) {
        const auto fi = nl.fanins(id);
        std::copy(fi.begin(), fi.end(),
                  cv.fanin_pool_.begin() + cv.fanin_offset_[id]);
    }

    // Fanout CSR by counting sort over the fanin edges, preserving the
    // consumer-id order the netlist's own lazy lists produce.
    cv.fanout_offset_.assign(n + 1, 0);
    for (node_id f : cv.fanin_pool_) ++cv.fanout_offset_[f + 1];
    for (std::size_t i = 1; i <= n; ++i)
        cv.fanout_offset_[i] += cv.fanout_offset_[i - 1];
    cv.fanout_pool_.resize(cv.fanin_pool_.size());
    {
        std::vector<std::uint32_t> cursor(cv.fanout_offset_.begin(),
                                          cv.fanout_offset_.end() - 1);
        for (node_id id = 0; id < n; ++id)
            for (node_id f : cv.fanins(id)) cv.fanout_pool_[cursor[f]++] = id;
    }

    // Driven-pin transpose: for each stem, the pin indices its consumers
    // read it on, in fanout-scan order (one sublist of matching pins per
    // driving edge, mirroring the scan the backward passes used to do).
    if (options.driven_pins) {
        cv.driven_offset_.assign(n + 1, 0);
        std::vector<std::uint32_t> count(n, 0);
        for (node_id id = 0; id < n; ++id) {
            const auto fi = cv.fanins(id);
            for (node_id f : fi) {
                std::uint32_t matches = 0;
                for (node_id g : fi)
                    if (g == f) ++matches;
                count[f] += matches;
            }
        }
        for (std::size_t i = 0; i < n; ++i)
            cv.driven_offset_[i + 1] = cv.driven_offset_[i] + count[i];
        cv.driven_pool_.resize(cv.driven_offset_[n]);
        std::vector<std::uint32_t> cursor(cv.driven_offset_.begin(),
                                          cv.driven_offset_.end() - 1);
        for (node_id stem = 0; stem < n; ++stem) {
            for (node_id g : cv.fanouts(stem)) {
                const auto fi = cv.fanins(g);
                for (std::size_t k = 0; k < fi.size(); ++k)
                    if (fi[k] == stem)
                        cv.driven_pool_[cursor[stem]++] =
                            cv.fanin_offset_[g] + static_cast<std::uint32_t>(k);
            }
        }
    }

    // Level buckets by counting sort over levels (stable in node id).
    cv.level_offset_.assign(cv.depth_ + 2, 0);
    for (std::uint32_t l : cv.level_) ++cv.level_offset_[l + 1];
    for (std::size_t i = 1; i < cv.level_offset_.size(); ++i)
        cv.level_offset_[i] += cv.level_offset_[i - 1];
    cv.level_nodes_.resize(n);
    {
        std::vector<std::uint32_t> cursor(cv.level_offset_.begin(),
                                          cv.level_offset_.end() - 1);
        for (node_id id = 0; id < n; ++id)
            cv.level_nodes_[cursor[cv.level_[id]]++] = id;
    }

    cv.inputs_.assign(nl.inputs().begin(), nl.inputs().end());
    cv.outputs_.assign(nl.outputs().begin(), nl.outputs().end());
    for (std::size_t i = 0; i < cv.inputs_.size(); ++i)
        cv.input_index_[cv.inputs_[i]] = static_cast<std::uint32_t>(i);
    for (node_id o : cv.outputs_) cv.is_output_[o] = 1;

    if (options.input_cones) {
        // One forward mark-propagation pass per input: a node is in the
        // cone iff some fanin is, and ids are topological, so a single
        // ascending scan both discovers and emits the cone in topological
        // order. The stamp array avoids clearing between inputs.
        std::vector<std::uint32_t> stamp(n, no_index);
        cv.cone_offset_.assign(cv.inputs_.size() + 1, 0);
        for (std::size_t i = 0; i < cv.inputs_.size(); ++i) {
            const node_id start = cv.inputs_[i];
            const std::uint32_t mark = static_cast<std::uint32_t>(i);
            stamp[start] = mark;
            cv.cone_pool_.push_back(start);
            for (node_id id = start + 1; id < n; ++id) {
                for (node_id f : cv.fanins(id)) {
                    if (stamp[f] == mark) {
                        stamp[id] = mark;
                        cv.cone_pool_.push_back(id);
                        break;
                    }
                }
            }
            cv.cone_offset_[i + 1] =
                static_cast<std::uint32_t>(cv.cone_pool_.size());
        }
    }

    return cv;
}

std::span<const node_id> circuit_view::input_cone(std::size_t input_idx) const {
    require(has_input_cones(),
            "circuit_view::input_cone: view compiled without input cones");
    require(input_idx < inputs_.size(),
            "circuit_view::input_cone: input index out of range");
    return {cone_pool_.data() + cone_offset_[input_idx],
            cone_pool_.data() + cone_offset_[input_idx + 1]};
}

}  // namespace wrpt
