#include "sim/logic_sim.h"

#include <algorithm>

#include "core/gate_eval.h"
#include "util/error.h"

namespace wrpt {

simulator::simulator(const netlist& nl)
    : owned_view_(std::make_unique<circuit_view>(circuit_view::compile(nl))),
      view_(owned_view_.get()) {
    init_scratch();
}

simulator::simulator(const circuit_view& view) : view_(&view) {
    init_scratch();
}

void simulator::init_scratch() {
    const std::size_t n = view_->node_count();
    good_.assign(n, 0);
    sens_.assign(n, 0);
    sens_stamp_.assign(n, 0);
    flip_.assign(n, 0);
    faulty_.assign(n, 0);
    has_faulty_.assign(n, 0);
    queued_.assign(n, 0);
    buckets_.resize(view_->depth() + 1);
}

void simulator::simulate(std::span<const std::uint64_t> input_words) {
    require(input_words.size() == view_->input_count(),
            "simulator::simulate: word count != input count");
    const circuit_view& cv = *view_;
    const auto inputs = cv.inputs();
    for (std::size_t i = 0; i < input_words.size(); ++i)
        good_[inputs[i]] = input_words[i];
    // Forward sweep in topological id order (every fanin id is smaller).
    const node_id count = static_cast<node_id>(cv.node_count());
    for (node_id n = 0; n < count; ++n) {
        if (cv.kind(n) == gate_kind::input) continue;
        const auto fi = cv.fanins(n);
        good_[n] = eval_gate_with(
            word_algebra{}, cv.kind(n),
            [&](std::size_t k) { return good_[fi[k]]; }, fi.size());
    }
    // New block: every memoized sensitization is stale.
    if (++stamp_ == 0) {
        std::fill(sens_stamp_.begin(), sens_stamp_.end(), 0);
        stamp_ = 1;
    }
}

std::uint64_t simulator::eval_node(node_id n) {
    const circuit_view& cv = *view_;
    const auto fi = cv.fanins(n);
    return eval_gate_with(
        word_algebra{}, cv.kind(n),
        [&](std::size_t k) {
            const node_id f = fi[k];
            return has_faulty_[f] ? faulty_[f] : good_[f];
        },
        fi.size());
}

void simulator::schedule(node_id n) {
    if (!queued_[n]) {
        queued_[n] = 1;
        ++pending_;
        buckets_[view_->level(n)].push_back(n);
    }
}

std::uint64_t simulator::sensitivity(node_id n) {
    const circuit_view& cv = *view_;
    // Walk up the fanout-1 chain to the stem or to the first memoized
    // node, then fill the memo back down. Iterative: a chain can be as
    // deep as the circuit.
    std::uint64_t s = ~0ULL;
    for (node_id m = n; !cv.is_stem(m); m = cv.fanouts(m)[0]) {
        if (sens_stamp_[m] == stamp_) {
            s = sens_[m];
            break;
        }
        chain_.push_back(m);
    }
    while (!chain_.empty()) {
        const node_id m = chain_.back();
        chain_.pop_back();
        if (s != 0) {
            // m drives exactly one pin of its single consumer g: flip it.
            const node_id g = cv.fanouts(m)[0];
            const auto fi = cv.fanins(g);
            s &= good_[g] ^ eval_gate_with(
                                word_algebra{}, cv.kind(g),
                                [&](std::size_t k) {
                                    return fi[k] == m ? ~good_[m]
                                                      : good_[fi[k]];
                                },
                                fi.size());
        }
        sens_[m] = s;
        sens_stamp_[m] = stamp_;
    }
    return s;
}

std::uint64_t simulator::propagate(node_id n, std::uint64_t value) {
    const circuit_view& cv = *view_;
    std::uint64_t detected = 0;
    const auto mark = [&](node_id m, std::uint64_t v) {
        faulty_[m] = v;
        has_faulty_[m] = 1;
        touched_.push_back(m);
        if (cv.is_output(m)) detected |= good_[m] ^ v;
        for (node_id fo : cv.fanouts(m)) schedule(fo);
    };
    mark(n, value);

    // Levelized wavefront: every edge increases the level, so processing
    // buckets in ascending level order finalizes each node exactly once.
    // It ends as soon as no scheduled node is left.
    for (std::size_t lvl = cv.level(n) + 1; pending_ > 0; ++lvl) {
        auto& bucket = buckets_[lvl];
        pending_ -= bucket.size();
        for (const node_id m : bucket) {
            queued_[m] = 0;
            const std::uint64_t v = eval_node(m);
            if (v != good_[m]) mark(m, v);
        }
        bucket.clear();
    }

    for (node_id m : touched_) has_faulty_[m] = 0;
    touched_.clear();
    return detected;
}

void simulator::detect_masks(std::span<const fault> faults,
                             std::span<const std::size_t> live,
                             std::span<std::uint64_t> out) {
    require(out.size() == live.size(),
            "simulator::detect_masks: out size != live size");
    const circuit_view& cv = *view_;

    // Each fault's flip at its FFR stem: the local flip at its site,
    // masked by the site's sensitization. OR them per stem.
    for (std::size_t i = 0; i < live.size(); ++i) {
        const fault& f = faults[live[i]];
        const std::uint64_t forced = stuck_value(f.value) ? ~0ULL : 0ULL;
        const node_id site = f.where;
        std::uint64_t d = good_[site] ^ forced;
        if (!f.is_stem()) {
            // Branch fault: only gate `site` sees the forced value on f.pin.
            const auto fi = cv.fanins(site);
            const auto pin = static_cast<std::size_t>(f.pin);
            d = good_[site] ^ eval_gate_with(
                                  word_algebra{}, cv.kind(site),
                                  [&](std::size_t k) {
                                      return k == pin ? forced : good_[fi[k]];
                                  },
                                  fi.size());
        }
        if (d != 0) d &= sensitivity(site);
        out[i] = d;
        if (d == 0) continue;
        const node_id stem = cv.ffr_stem(site);
        if (flip_[stem] == 0) stems_.push_back(stem);
        flip_[stem] |= d;
    }

    // One propagation per flipped stem; the patterns are independent
    // bits, so each fault's bits see the stem's own observability.
    for (const node_id s : stems_) flip_[s] = propagate(s, good_[s] ^ flip_[s]);
    for (std::size_t i = 0; i < live.size(); ++i)
        if (out[i] != 0) out[i] &= flip_[cv.ffr_stem(faults[live[i]].where)];
    for (const node_id s : stems_) flip_[s] = 0;
    stems_.clear();
}

namespace {

/// Scalar sweep of `nl` over one pattern, with `f` injected when non-null.
std::vector<bool> scalar_outputs(const netlist& nl,
                                 const std::vector<bool>& inputs,
                                 const fault* f) {
    require(inputs.size() == nl.input_count(),
            "evaluate: input size mismatch");
    std::vector<bool> value(nl.node_count());
    for (std::size_t i = 0; i < inputs.size(); ++i)
        value[nl.inputs()[i]] = inputs[i];
    for (node_id n = 0; n < nl.node_count(); ++n) {
        if (nl.kind(n) != gate_kind::input) {
            const auto fi = nl.fanins(n);
            const bool on_pin = f != nullptr && !f->is_stem() && f->where == n;
            value[n] = eval_gate_with(
                bool_algebra{}, nl.kind(n),
                [&](std::size_t k) -> bool {
                    if (on_pin && k == static_cast<std::size_t>(f->pin))
                        return stuck_value(f->value);
                    return value[fi[k]];
                },
                fi.size());
        }
        if (f != nullptr && f->is_stem() && f->where == n)
            value[n] = stuck_value(f->value);
    }
    std::vector<bool> out;
    out.reserve(nl.output_count());
    for (node_id o : nl.outputs()) out.push_back(value[o]);
    return out;
}

}  // namespace

std::vector<bool> evaluate(const netlist& nl, const std::vector<bool>& inputs) {
    return scalar_outputs(nl, inputs, nullptr);
}

std::vector<bool> evaluate_with_fault(const netlist& nl,
                                      const std::vector<bool>& inputs,
                                      const fault& f) {
    return scalar_outputs(nl, inputs, &f);
}

}  // namespace wrpt
