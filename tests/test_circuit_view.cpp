// Tests for the compiled circuit_view core and the refactor's equivalence
// guarantees: view structure vs the netlist it compiles, incremental
// cone-restricted COP updates vs full recomputation, and multi-chunk vs
// one-chunk fault simulation.

#include "core/circuit_view.h"

#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "core/gate_eval.h"
#include "fault/fault.h"
#include "gen/comparator.h"
#include "gen/random_circuit.h"
#include "gen/sharded.h"
#include "io/weights_io.h"
#include "prob/cop_engine.h"
#include "prob/detect.h"
#include "prob/observability.h"
#include "prob/signal_prob.h"
#include "sim/fault_sim.h"
#include "sim/logic_sim.h"
#include "util/error.h"
#include "util/rng.h"

namespace wrpt {
namespace {

netlist make_test_circuit(std::uint64_t seed, std::size_t inputs = 10,
                          std::size_t gates = 120) {
    random_circuit_spec spec;
    spec.inputs = inputs;
    spec.gates = gates;
    spec.seed = seed;
    return make_random_circuit(spec);
}

circuit_view compile_with_cones(const netlist& nl) {
    circuit_view::compile_options co;
    co.input_cones = true;
    co.driven_pins = true;
    return circuit_view::compile(nl, co);
}

// --- structure ----------------------------------------------------------

class view_seeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(view_seeds, structure_matches_netlist) {
    const netlist nl = make_test_circuit(GetParam());
    const circuit_view cv = compile_with_cones(nl);

    ASSERT_EQ(cv.node_count(), nl.node_count());
    ASSERT_EQ(cv.input_count(), nl.input_count());
    ASSERT_EQ(cv.output_count(), nl.output_count());
    EXPECT_EQ(cv.depth(), nl.depth());

    for (node_id n = 0; n < nl.node_count(); ++n) {
        EXPECT_EQ(cv.kind(n), nl.kind(n));
        EXPECT_EQ(cv.level(n), nl.level(n));
        EXPECT_EQ(cv.is_output(n), nl.is_output(n));
        EXPECT_EQ(cv.input_index(n), nl.input_index(n));
        const auto vfi = cv.fanins(n);
        const auto nfi = nl.fanins(n);
        ASSERT_EQ(vfi.size(), nfi.size());
        for (std::size_t k = 0; k < vfi.size(); ++k) {
            EXPECT_EQ(vfi[k], nfi[k]);
            // Topological levelization: every edge increases the level.
            EXPECT_LT(cv.level(vfi[k]), cv.level(n));
        }
        const auto vfo = cv.fanouts(n);
        const auto nfo = nl.fanouts(n);
        ASSERT_EQ(vfo.size(), nfo.size());
        for (std::size_t k = 0; k < vfo.size(); ++k) EXPECT_EQ(vfo[k], nfo[k]);
    }

    // Level buckets partition the nodes and agree with level().
    std::size_t bucketed = 0;
    for (std::size_t l = 0; l <= cv.depth(); ++l) {
        for (node_id n : cv.nodes_at_level(l)) {
            EXPECT_EQ(cv.level(n), l);
            ++bucketed;
        }
    }
    EXPECT_EQ(bucketed, cv.node_count());
}

TEST_P(view_seeds, input_cones_match_netlist_fanout_cones) {
    const netlist nl = make_test_circuit(GetParam());
    const circuit_view cv = compile_with_cones(nl);
    ASSERT_TRUE(cv.has_input_cones());
    for (std::size_t i = 0; i < nl.input_count(); ++i) {
        const auto cone = cv.input_cone(i);
        const auto expected = nl.fanout_cone(nl.inputs()[i]);
        ASSERT_EQ(cone.size(), expected.size()) << "input " << i;
        for (std::size_t k = 0; k < cone.size(); ++k)
            EXPECT_EQ(cone[k], expected[k]);
        // Topological (ascending id) order, starting at the input.
        EXPECT_EQ(cone.front(), nl.inputs()[i]);
        for (std::size_t k = 1; k < cone.size(); ++k)
            EXPECT_LT(cone[k - 1], cone[k]);
    }
}

// --- incremental COP vs full recompute ----------------------------------

TEST_P(view_seeds, incremental_cop_update_matches_full_recompute) {
    const netlist nl = make_test_circuit(GetParam());
    const circuit_view cv = compile_with_cones(nl);

    weight_vector w(nl.input_count(), 0.5);
    cop_engine engine(cv, w);

    rng r(GetParam() * 31 + 7);
    for (int step = 0; step < 25; ++step) {
        const std::size_t i = r.next_below(nl.input_count());
        const double v = 0.05 + 0.9 * r.next_double();
        w[i] = v;
        engine.set_input(i, v);

        const std::vector<double> full_p = cop_signal_probabilities(cv, w);
        const observability_result full_obs = cop_observabilities(cv, full_p);
        ASSERT_EQ(engine.probabilities().size(), full_p.size());
        for (node_id n = 0; n < nl.node_count(); ++n) {
            ASSERT_DOUBLE_EQ(engine.probabilities()[n], full_p[n])
                << "node " << n << " step " << step;
            ASSERT_DOUBLE_EQ(engine.stem_observability()[n], full_obs.stem[n])
                << "node " << n << " step " << step;
            for (std::size_t k = 0; k < nl.fanin_count(n); ++k)
                ASSERT_DOUBLE_EQ(engine.pin_observability(n, k),
                                 full_obs.pin_obs(n, k))
                    << "pin " << n << "." << k << " step " << step;
        }
    }
}

TEST_P(view_seeds, multi_input_move_matches_full_recompute) {
    // set_inputs with several simultaneous moves (the saddle-escape probe
    // shape) must land on exactly the state a full recompute produces:
    // one forward pass over the union of the moved cones, one backward
    // pass.
    const netlist nl = make_test_circuit(GetParam());
    const circuit_view cv = compile_with_cones(nl);

    weight_vector w(nl.input_count(), 0.5);
    cop_engine engine(cv, w);

    rng r(GetParam() * 57 + 11);
    for (int step = 0; step < 10; ++step) {
        const std::size_t count = 1 + r.next_below(nl.input_count());
        probe moves;
        std::vector<std::uint8_t> used(nl.input_count(), 0);
        for (std::size_t m = 0; m < count; ++m) {
            const std::size_t i = r.next_below(nl.input_count());
            if (used[i]) continue;
            used[i] = 1;
            const double v = 0.05 + 0.9 * r.next_double();
            moves.push_back({i, v});
            w[i] = v;
        }
        engine.set_inputs(moves);

        const std::vector<double> full_p = cop_signal_probabilities(cv, w);
        const observability_result full_obs = cop_observabilities(cv, full_p);
        for (node_id n = 0; n < nl.node_count(); ++n) {
            ASSERT_DOUBLE_EQ(engine.probabilities()[n], full_p[n])
                << "node " << n << " step " << step;
            ASSERT_DOUBLE_EQ(engine.stem_observability()[n], full_obs.stem[n])
                << "node " << n << " step " << step;
            for (std::size_t k = 0; k < nl.fanin_count(n); ++k)
                ASSERT_DOUBLE_EQ(engine.pin_observability(n, k),
                                 full_obs.pin_obs(n, k))
                    << "pin " << n << "." << k << " step " << step;
        }
    }
}

TEST_P(view_seeds, multi_input_move_rollback_restores_exact_state) {
    const netlist nl = make_test_circuit(GetParam());
    const circuit_view cv = compile_with_cones(nl);
    weight_vector w(nl.input_count());
    rng r(GetParam() + 29);
    for (double& x : w) x = 0.1 + 0.8 * r.next_double();
    cop_engine engine(cv, w);

    const std::vector<double> p_before(engine.probabilities().begin(),
                                       engine.probabilities().end());
    const std::vector<double> stem_before(engine.stem_observability().begin(),
                                          engine.stem_observability().end());

    for (int round = 0; round < 6; ++round) {
        probe moves;
        for (std::size_t i = 0; i < nl.input_count(); i += 1 + round % 3)
            moves.push_back({i, round % 2 == 0 ? 0.05 : 0.95});
        const cop_engine::checkpoint ck = engine.mark();
        engine.set_inputs(moves);
        engine.rollback(ck);
    }
    EXPECT_EQ(engine.weights(), w);
    for (node_id n = 0; n < nl.node_count(); ++n) {
        ASSERT_EQ(engine.probabilities()[n], p_before[n]) << "node " << n;
        ASSERT_EQ(engine.stem_observability()[n], stem_before[n])
            << "node " << n;
    }
}

TEST_P(view_seeds, cop_engine_rollback_restores_exact_state) {
    const netlist nl = make_test_circuit(GetParam());
    const circuit_view cv = compile_with_cones(nl);
    weight_vector w(nl.input_count());
    rng r(GetParam() + 5);
    for (double& x : w) x = 0.1 + 0.8 * r.next_double();
    cop_engine engine(cv, w);

    const std::vector<double> p_before(engine.probabilities().begin(),
                                       engine.probabilities().end());
    const std::vector<double> stem_before(engine.stem_observability().begin(),
                                          engine.stem_observability().end());

    for (int probe = 0; probe < 10; ++probe) {
        const std::size_t i = r.next_below(nl.input_count());
        const cop_engine::checkpoint ck = engine.mark();
        engine.set_input(i, probe % 2 == 0 ? 0.05 : 0.95);
        engine.rollback(ck);
    }
    EXPECT_EQ(engine.weights(), w);
    for (node_id n = 0; n < nl.node_count(); ++n) {
        ASSERT_EQ(engine.probabilities()[n], p_before[n]) << "node " << n;
        ASSERT_EQ(engine.stem_observability()[n], stem_before[n])
            << "node " << n;
    }
}

TEST_P(view_seeds, cop_estimator_delta_matches_full_estimate) {
    const netlist nl = make_test_circuit(GetParam());
    const auto faults = generate_full_faults(nl);

    cop_detect_estimator incremental;
    incremental.set_engine_cone_limit(1.0);  // force the engine path
    cop_detect_estimator full;
    full.set_incremental(false);

    weight_vector base(nl.input_count(), 0.5);
    rng r(GetParam() * 13 + 3);
    for (int step = 0; step < 6; ++step) {
        const std::size_t i = r.next_below(nl.input_count());
        const double v = 0.05 + 0.9 * r.next_double();
        const auto a = incremental.estimate_input_delta(nl, faults, base, i, v);
        const auto b = full.estimate_input_delta(nl, faults, base, i, v);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t k = 0; k < a.size(); ++k)
            ASSERT_DOUBLE_EQ(a[k], b[k]) << to_string(nl, faults[k]);
        // Move the base the way a coordinate-descent sweep does.
        base[i] = 0.1 + 0.8 * r.next_double();
        const auto ea = incremental.estimate(nl, faults, base);
        const auto eb = full.estimate(nl, faults, base);
        for (std::size_t k = 0; k < ea.size(); ++k)
            ASSERT_DOUBLE_EQ(ea[k], eb[k]) << to_string(nl, faults[k]);
    }
}

// --- parallel vs sequential fault simulation ----------------------------

TEST_P(view_seeds, parallel_fault_sim_matches_sequential) {
    const netlist nl = make_test_circuit(GetParam(), 12, 160);
    const auto faults = generate_full_faults(nl);

    fault_sim_options seq;
    seq.max_patterns = 500;  // non-multiple of 64: exercises the tail block
    seq.threads = 1;
    fault_sim_options par = seq;
    par.threads = 4;

    const auto a = run_weighted_fault_simulation(
        nl, faults, uniform_weights(nl), 0xfeed, seq);
    const auto b = run_weighted_fault_simulation(
        nl, faults, uniform_weights(nl), 0xfeed, par);
    EXPECT_EQ(a.patterns_applied, b.patterns_applied);
    EXPECT_EQ(a.detected_count, b.detected_count);
    ASSERT_EQ(a.first_detected.size(), b.first_detected.size());
    for (std::size_t i = 0; i < a.first_detected.size(); ++i)
        EXPECT_EQ(a.first_detected[i], b.first_detected[i])
            << to_string(nl, faults[i]);
}

TEST(parallel_fault_sim, early_stop_accounting_matches_sequential) {
    // Fully random-testable circuit: both paths stop before the budget.
    const netlist nl = make_cascaded_comparator(1);
    const auto faults = generate_full_faults(nl);
    fault_sim_options seq;
    seq.max_patterns = 4096;
    seq.threads = 1;
    fault_sim_options par = seq;
    par.threads = 3;
    const auto a =
        run_weighted_fault_simulation(nl, faults, uniform_weights(nl), 11, seq);
    const auto b =
        run_weighted_fault_simulation(nl, faults, uniform_weights(nl), 11, par);
    EXPECT_EQ(a.detected_count, faults.size());
    EXPECT_EQ(a.patterns_applied, b.patterns_applied);
    for (std::size_t i = 0; i < a.first_detected.size(); ++i)
        EXPECT_EQ(a.first_detected[i], b.first_detected[i]);
}

/// Weighted random blocks that throw on the third draw.
class throwing_source final : public pattern_source {
public:
    explicit throwing_source(const netlist& nl)
        : inner_(uniform_weights(nl), 0xfeed) {}
    void next_block(std::vector<std::uint64_t>& words) override {
        if (++draws_ == 3) throw std::runtime_error("source failed");
        inner_.next_block(words);
    }

private:
    weighted_random_source inner_;
    int draws_ = 0;
};

/// Blocks one word short of the circuit's input count.
class short_source final : public pattern_source {
public:
    explicit short_source(const netlist& nl) : inner_(uniform_weights(nl), 1) {}
    void next_block(std::vector<std::uint64_t>& words) override {
        inner_.next_block(words);
        words.pop_back();
    }

private:
    weighted_random_source inner_;
};

// A worker error on the shared-pool path reaches the caller as the
// sequential path's error, and leaves the pool fit for the next run.
TEST(parallel_fault_sim, worker_errors_reach_the_caller) {
    const netlist nl = make_test_circuit(12, 12, 160);
    const auto faults = generate_full_faults(nl);
    fault_sim_options seq;
    seq.max_patterns = 4096;
    seq.threads = 1;
    const auto want = run_weighted_fault_simulation(
        nl, faults, uniform_weights(nl), 0xfeed, seq);
    // The third block is drawn on both paths.
    ASSERT_GT(want.patterns_applied, 128u);

    for (const unsigned threads : {1u, 4u}) {
        fault_sim_options o = seq;
        o.threads = threads;
        throwing_source bad(nl);
        EXPECT_THROW(run_fault_simulation(nl, faults, bad, o),
                     std::runtime_error)
            << "threads " << threads;
        short_source narrow(nl);
        EXPECT_THROW(run_fault_simulation(nl, faults, narrow, o),
                     invalid_input)
            << "threads " << threads;
    }

    fault_sim_options par = seq;
    par.threads = 4;
    const auto got = run_weighted_fault_simulation(
        nl, faults, uniform_weights(nl), 0xfeed, par);
    EXPECT_EQ(want.patterns_applied, got.patterns_applied);
    EXPECT_EQ(want.detected_count, got.detected_count);
    EXPECT_EQ(want.first_detected, got.first_detected);
}

// --- thread-safe lazy fanouts -------------------------------------------

TEST(netlist_concurrency, concurrent_fanout_queries_are_safe) {
    // The lazy fanout build used to flip a plain mutable flag from const
    // accessors; under TSan (and occasionally in release) concurrent first
    // queries raced. Hammer a fresh netlist from several threads.
    for (int round = 0; round < 8; ++round) {
        const netlist nl = make_test_circuit(1000 + round, 10, 200);
        std::vector<std::thread> pool;
        std::atomic<std::size_t> total{0};
        for (int t = 0; t < 4; ++t) {
            pool.emplace_back([&nl, &total] {
                std::size_t sum = 0;
                for (node_id n = 0; n < nl.node_count(); ++n)
                    sum += nl.fanouts(n).size();
                total.fetch_add(sum);
            });
        }
        for (auto& t : pool) t.join();
        std::size_t edges = 0;
        for (node_id n = 0; n < nl.node_count(); ++n)
            edges += nl.fanin_count(n);
        EXPECT_EQ(total.load(), 4 * edges);
    }
}

// --- sharded comparator generator ---------------------------------------

TEST(sharded_comparators, parity_semantics_and_local_cones) {
    const std::size_t slices = 8, width = 4;
    const netlist nl = make_sharded_comparators(slices, width);
    nl.validate();
    ASSERT_EQ(nl.input_count(), slices * width + (slices / 2) * width);
    ASSERT_EQ(nl.output_count(), 1u);

    // Output parity counts slices whose a-bus equals the shared b-bus.
    std::vector<bool> pattern(nl.input_count(), false);
    // All zero: every slice matches its bus -> parity of 8 matches = 0.
    EXPECT_FALSE(evaluate(nl, pattern)[0]);
    // Flip one a-bit: one slice mismatches -> 7 matches, parity = 1.
    pattern[nl.input_index(nl.find("a0_0"))] = true;
    EXPECT_TRUE(evaluate(nl, pattern)[0]);

    // Input cones stay local: a slice pair plus the compactor tail, far
    // below the node count (the property the incremental engine exploits).
    const circuit_view cv = compile_with_cones(nl);
    for (std::size_t i = 0; i < cv.input_count(); ++i)
        EXPECT_LT(cv.input_cone(i).size(), cv.node_count() / 2) << i;
}

TEST(sharded_comparators, incremental_cop_matches_full) {
    const netlist nl = make_sharded_comparators(6, 3);
    const circuit_view cv = compile_with_cones(nl);
    weight_vector w(nl.input_count(), 0.5);
    cop_engine engine(cv, w);
    rng r(77);
    for (int step = 0; step < 12; ++step) {
        const std::size_t i = r.next_below(nl.input_count());
        const double v = 0.05 + 0.9 * r.next_double();
        w[i] = v;
        engine.set_input(i, v);
        const std::vector<double> full_p = cop_signal_probabilities(cv, w);
        const observability_result full_obs = cop_observabilities(cv, full_p);
        for (node_id n = 0; n < nl.node_count(); ++n) {
            ASSERT_DOUBLE_EQ(engine.probabilities()[n], full_p[n]) << n;
            ASSERT_DOUBLE_EQ(engine.stem_observability()[n], full_obs.stem[n])
                << n;
        }
    }
}

// --- gate_eval algebra cross-checks -------------------------------------

TEST(gate_eval, word_and_bool_algebras_agree) {
    const gate_kind kinds[] = {gate_kind::buf,  gate_kind::not_,
                               gate_kind::and_, gate_kind::nand_,
                               gate_kind::or_,  gate_kind::nor_,
                               gate_kind::xor_, gate_kind::xnor_};
    rng r(99);
    for (gate_kind k : kinds) {
        const std::size_t arity =
            (k == gate_kind::buf || k == gate_kind::not_) ? 1 : 3;
        for (int trial = 0; trial < 16; ++trial) {
            std::uint64_t words[3];
            bool bits[3];
            for (std::size_t a = 0; a < arity; ++a) {
                words[a] = r.next_word();
                bits[a] = (words[a] & 1ULL) != 0;
            }
            const std::uint64_t w = eval_gate(word_algebra{}, k, words, arity);
            const bool b = eval_gate(bool_algebra{}, k, bits, arity);
            EXPECT_EQ((w & 1ULL) != 0, b) << to_string(k);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, view_seeds,
                         ::testing::Values(3, 7, 12, 21, 42));

}  // namespace
}  // namespace wrpt
