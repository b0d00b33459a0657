#include "sim/logic_sim.h"

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
    args_.assign(view_->max_arity(), 0);
    faulty_.assign(n, 0);
    has_faulty_.assign(n, 0);
    queued_.assign(n, 0);
    buckets_.resize(view_->depth() + 1);
    output_diff_.assign(view_->output_count(), 0);
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
        buckets_[view_->level(n)].push_back(n);
    }
}

std::uint64_t simulator::detect_mask(const fault& f) {
    const circuit_view& cv = *view_;
    std::fill(output_diff_.begin(), output_diff_.end(), 0);

    const std::uint64_t forced = stuck_value(f.value) ? ~0ULL : 0ULL;
    std::uint64_t detected = 0;
    std::size_t start_level = 0;

    auto mark = [&](node_id n, std::uint64_t value) {
        faulty_[n] = value;
        has_faulty_[n] = 1;
        touched_.push_back(n);
        for (node_id fo : cv.fanouts(n)) schedule(fo);
    };

    if (f.is_stem()) {
        const node_id n = f.where;
        if ((good_[n] ^ forced) == 0) return 0;  // fault never activated
        mark(n, forced);
        if (cv.is_output(n)) detected |= good_[n] ^ forced;
        start_level = cv.level(n);
    } else {
        // Branch fault: only gate f.where sees the forced value on pin f.pin.
        const node_id g = f.where;
        const auto fi = cv.fanins(g);
        for (std::size_t k = 0; k < fi.size(); ++k) args_[k] = good_[fi[k]];
        args_[static_cast<std::size_t>(f.pin)] = forced;
        const std::uint64_t v =
            eval_gate(word_algebra{}, cv.kind(g), args_.data(), fi.size());
        if (v == good_[g]) return 0;
        mark(g, v);
        queued_[g] = 0;  // g itself is final; only its fanouts propagate
        if (cv.is_output(g)) detected |= good_[g] ^ v;
        start_level = cv.level(g);
    }

    // Levelized wavefront: every edge increases the level, so processing
    // buckets in ascending level order finalizes each node exactly once.
    for (std::size_t lvl = start_level; lvl < buckets_.size(); ++lvl) {
        auto& bucket = buckets_[lvl];
        for (std::size_t idx = 0; idx < bucket.size(); ++idx) {
            const node_id n = bucket[idx];
            queued_[n] = 0;
            if (has_faulty_[n]) continue;  // the injected node stays forced
            const std::uint64_t v = eval_node(n);
            if (v == good_[n]) continue;
            mark(n, v);
            if (cv.is_output(n)) detected |= good_[n] ^ v;
        }
        bucket.clear();
    }

    // Record per-output differences, then reset scratch state.
    if (detected != 0) {
        const auto outputs = cv.outputs();
        for (std::size_t o = 0; o < outputs.size(); ++o) {
            const node_id out = outputs[o];
            if (has_faulty_[out]) output_diff_[o] = good_[out] ^ faulty_[out];
        }
    }
    for (node_id n : touched_) has_faulty_[n] = 0;
    touched_.clear();
    return detected;
}

std::vector<bool> evaluate(const netlist& nl, const std::vector<bool>& inputs) {
    require(inputs.size() == nl.input_count(),
            "evaluate: input size mismatch");
    simulator sim(nl);
    std::vector<std::uint64_t> words(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i)
        words[i] = inputs[i] ? 1ULL : 0ULL;
    sim.simulate(words);
    std::vector<bool> out;
    out.reserve(nl.output_count());
    for (node_id o : nl.outputs()) out.push_back((sim.value(o) & 1ULL) != 0);
    return out;
}

std::vector<bool> evaluate_with_fault(const netlist& nl,
                                      const std::vector<bool>& inputs,
                                      const fault& f) {
    require(inputs.size() == nl.input_count(),
            "evaluate_with_fault: input size mismatch");
    simulator sim(nl);
    std::vector<std::uint64_t> words(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i)
        words[i] = inputs[i] ? 1ULL : 0ULL;
    sim.simulate(words);
    const std::uint64_t mask = sim.detect_mask(f);
    std::vector<bool> out;
    out.reserve(nl.output_count());
    for (std::size_t o = 0; o < nl.output_count(); ++o) {
        bool good_bit = (sim.value(nl.outputs()[o]) & 1ULL) != 0;
        const bool flipped = (sim.last_output_diff()[o] & 1ULL) != 0;
        out.push_back(flipped ? !good_bit : good_bit);
    }
    (void)mask;
    return out;
}

}  // namespace wrpt
