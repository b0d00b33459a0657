// Tests for the probability-analysis engines: COP signal probabilities,
// observabilities, and the four detection probability estimators against
// ground truth.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "fault/fault.h"
#include "gen/random_circuit.h"
#include "gen/wordlib.h"
#include "prob/detect.h"
#include "prob/observability.h"
#include "prob/redundancy.h"
#include "prob/signal_prob.h"
#include "prob/stafan.h"
#include "sim/logic_sim.h"
#include "util/error.h"
#include "util/rng.h"

namespace wrpt {
namespace {

/// Tree circuit (no reconvergent fanout): COP must be exact.
netlist tree_circuit() {
    netlist nl("tree");
    const node_id a = nl.add_input("a");
    const node_id b = nl.add_input("b");
    const node_id c = nl.add_input("c");
    const node_id d = nl.add_input("d");
    const node_id e = nl.add_input("e");
    const node_id g1 = nl.add_binary(gate_kind::and_, a, b, "g1");
    const node_id g2 = nl.add_binary(gate_kind::or_, c, d, "g2");
    const node_id g3 = nl.add_binary(gate_kind::xor_, g1, g2, "g3");
    const node_id g4 = nl.add_binary(gate_kind::nand_, g3, e, "g4");
    nl.mark_output(g4, "y");
    return nl;
}

TEST(cop_signal, exact_on_trees) {
    const netlist nl = tree_circuit();
    rng r(3);
    for (int t = 0; t < 20; ++t) {
        weight_vector w(nl.input_count());
        for (auto& x : w) x = r.next_double();
        const auto cop = cop_signal_probabilities(nl, w);
        const auto exact = exact_signal_probabilities_enum(nl, w);
        for (node_id n = 0; n < nl.node_count(); ++n)
            EXPECT_NEAR(cop[n], exact[n], 1e-12) << "node " << n;
    }
}

TEST(cop_signal, known_values) {
    netlist nl("k");
    const node_id a = nl.add_input("a");
    const node_id b = nl.add_input("b");
    const node_id g = nl.add_binary(gate_kind::and_, a, b, "g");
    const node_id h = nl.add_binary(gate_kind::xnor_, a, b, "h");
    nl.mark_output(g, "g_o");
    nl.mark_output(h, "h_o");
    const auto p = cop_signal_probabilities(nl, {0.3, 0.6});
    EXPECT_NEAR(p[g], 0.18, 1e-12);
    EXPECT_NEAR(p[h], 0.3 * 0.6 + 0.7 * 0.4, 1e-12);
}

TEST(cop_signal, reconvergence_is_approximate_but_bounded) {
    // y = and(x, x) has true probability p, COP yields p^2.
    netlist nl("rc");
    const node_id x = nl.add_input("x");
    const node_id b1 = nl.add_unary(gate_kind::buf, x, "b1");
    const node_id b2 = nl.add_unary(gate_kind::buf, x, "b2");
    const node_id y = nl.add_binary(gate_kind::and_, b1, b2, "y");
    nl.mark_output(y, "y");
    const auto p = cop_signal_probabilities(nl, {0.5});
    EXPECT_NEAR(p[y], 0.25, 1e-12);  // the documented COP error
    const auto exact = exact_signal_probabilities_enum(nl, {0.5});
    EXPECT_NEAR(exact[y], 0.5, 1e-12);
}

class prob_seeds : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(seeds, prob_seeds, ::testing::Values(1, 4, 9, 16, 25));

TEST(observability, chain_attenuates_geometrically) {
    // x -> and(x, c1) -> and(., c2) -> ... output; obs of x is the product
    // of the side-input probabilities.
    netlist nl("chain");
    const node_id x = nl.add_input("x");
    const node_id c1 = nl.add_input("c1");
    const node_id c2 = nl.add_input("c2");
    node_id cur = nl.add_binary(gate_kind::and_, x, c1, "g1");
    cur = nl.add_binary(gate_kind::and_, cur, c2, "g2");
    nl.mark_output(cur, "y");
    const weight_vector w{0.5, 0.25, 0.75};
    const auto p = cop_signal_probabilities(nl, w);
    const auto obs = cop_observabilities(nl, p);
    EXPECT_NEAR(obs.stem[x], 0.25 * 0.75, 1e-12);
    EXPECT_NEAR(obs.stem[nl.find("g1")], 0.75, 1e-12);
    EXPECT_NEAR(obs.stem[nl.find("g2")], 1.0, 1e-12);
}

TEST(observability, xor_does_not_mask) {
    netlist nl("xobs");
    const node_id x = nl.add_input("x");
    const node_id y = nl.add_input("y");
    const node_id g = nl.add_binary(gate_kind::xor_, x, y, "g");
    nl.mark_output(g, "o");
    const auto p = cop_signal_probabilities(nl, {0.9, 0.1});
    const auto obs = cop_observabilities(nl, p);
    EXPECT_DOUBLE_EQ(obs.stem[x], 1.0);
    EXPECT_DOUBLE_EQ(obs.stem[y], 1.0);
}

TEST(observability, fanout_combines) {
    // x feeds two separate and-gates with side probabilities 0.5 and 0.5;
    // stem obs = 1 - (1-0.5)(1-0.5) = 0.75 under COP.
    netlist nl("fobs");
    const node_id x = nl.add_input("x");
    const node_id s1 = nl.add_input("s1");
    const node_id s2 = nl.add_input("s2");
    nl.mark_output(nl.add_binary(gate_kind::and_, x, s1, "g1"), "o1");
    nl.mark_output(nl.add_binary(gate_kind::and_, x, s2, "g2"), "o2");
    const auto p = cop_signal_probabilities(nl, {0.5, 0.5, 0.5});
    const auto obs = cop_observabilities(nl, p);
    EXPECT_NEAR(obs.stem[x], 0.75, 1e-12);
}

// --- detection estimators vs ground truth -------------------------------------

/// Brute-force exact detection probability by enumeration.
std::vector<double> enum_detection_probs(const netlist& nl,
                                         const std::vector<fault>& faults,
                                         const weight_vector& w) {
    std::vector<double> out(faults.size(), 0.0);
    const std::size_t ins = nl.input_count();
    for (std::uint64_t v = 0; v < (1ULL << ins); ++v) {
        std::vector<bool> in(ins);
        double weight = 1.0;
        for (std::size_t i = 0; i < ins; ++i) {
            in[i] = ((v >> i) & 1ULL) != 0;
            weight *= in[i] ? w[i] : 1.0 - w[i];
        }
        const auto good = evaluate(nl, in);
        for (std::size_t fi = 0; fi < faults.size(); ++fi)
            if (evaluate_with_fault(nl, in, faults[fi]) != good)
                out[fi] += weight;
    }
    return out;
}

TEST_P(prob_seeds, exact_estimator_matches_enumeration) {
    random_circuit_spec spec;
    spec.inputs = 7;
    spec.gates = 30;
    spec.seed = GetParam() + 50;
    const netlist nl = make_random_circuit(spec);
    auto faults = generate_full_faults(nl);
    faults.resize(std::min<std::size_t>(faults.size(), 40));
    rng r(spec.seed);
    weight_vector w(nl.input_count());
    for (auto& x : w) x = 0.1 + 0.8 * r.next_double();

    exact_detect_estimator exact;
    const auto est = exact.estimate(nl, faults, w);
    const auto ref = enum_detection_probs(nl, faults, w);
    for (std::size_t i = 0; i < faults.size(); ++i)
        EXPECT_NEAR(est[i], ref[i], 1e-9) << to_string(nl, faults[i]);
}

TEST(cop_estimator, exact_on_fanout_free_and_or_logic) {
    // Tree of and/or gates: activation x observability is exact.
    netlist nl("aotree");
    const node_id a = nl.add_input("a");
    const node_id b = nl.add_input("b");
    const node_id c = nl.add_input("c");
    const node_id d = nl.add_input("d");
    const node_id g1 = nl.add_binary(gate_kind::and_, a, b, "g1");
    const node_id g2 = nl.add_binary(gate_kind::or_, c, d, "g2");
    const node_id g3 = nl.add_binary(gate_kind::and_, g1, g2, "g3");
    nl.mark_output(g3, "y");
    const auto faults = generate_full_faults(nl);
    const weight_vector w{0.3, 0.6, 0.2, 0.7};
    cop_detect_estimator cop;
    const auto est = cop.estimate(nl, faults, w);
    const auto ref = enum_detection_probs(nl, faults, w);
    for (std::size_t i = 0; i < faults.size(); ++i)
        EXPECT_NEAR(est[i], ref[i], 1e-12) << to_string(nl, faults[i]);
}

TEST(cop_estimator, reasonable_on_reconvergent_logic) {
    random_circuit_spec spec;
    spec.inputs = 7;
    spec.gates = 25;
    spec.seed = 123;
    const netlist nl = make_random_circuit(spec);
    auto faults = generate_full_faults(nl);
    const weight_vector w = uniform_weights(nl);
    cop_detect_estimator cop;
    exact_detect_estimator exact;
    const auto a = cop.estimate(nl, faults, w);
    const auto b = exact.estimate(nl, faults, w);
    // COP is a heuristic: require probabilities in range and mostly close.
    double total_err = 0.0;
    for (std::size_t i = 0; i < faults.size(); ++i) {
        EXPECT_GE(a[i], 0.0);
        EXPECT_LE(a[i], 1.0 + 1e-12);
        total_err += std::abs(a[i] - b[i]);
    }
    EXPECT_LT(total_err / static_cast<double>(faults.size()), 0.15);
}

TEST(mc_estimator, converges_to_exact) {
    netlist nl("mc");
    const node_id a = nl.add_input("a");
    const node_id b = nl.add_input("b");
    const node_id c = nl.add_input("c");
    const node_id g = nl.add_gate(gate_kind::and_, {a, b, c}, "g");
    nl.mark_output(g, "y");
    const auto faults = generate_full_faults(nl);
    const weight_vector w{0.5, 0.5, 0.5};
    mc_detect_estimator mc(1 << 16, 99);
    exact_detect_estimator exact;
    const auto est = mc.estimate(nl, faults, w);
    const auto ref = exact.estimate(nl, faults, w);
    for (std::size_t i = 0; i < faults.size(); ++i)
        EXPECT_NEAR(est[i], ref[i], 0.02) << to_string(nl, faults[i]);
}

TEST(stafan_estimator, counts_match_cop_on_trees) {
    const netlist nl = tree_circuit();
    const weight_vector w = uniform_weights(nl);
    const stafan_counts sc = stafan_count(nl, w, 1 << 15, 7);
    const auto cop = cop_signal_probabilities(nl, w);
    for (node_id n = 0; n < nl.node_count(); ++n)
        EXPECT_NEAR(sc.one_controllability[n], cop[n], 0.02) << "node " << n;
}

TEST(stafan_estimator, close_to_exact_on_small_circuit) {
    netlist nl("st");
    const node_id a = nl.add_input("a");
    const node_id b = nl.add_input("b");
    const node_id c = nl.add_input("c");
    const node_id g1 = nl.add_binary(gate_kind::and_, a, b, "g1");
    const node_id g2 = nl.add_binary(gate_kind::or_, g1, c, "g2");
    nl.mark_output(g2, "y");
    const auto faults = generate_full_faults(nl);
    const weight_vector w{0.5, 0.5, 0.5};
    stafan_detect_estimator stafan(1 << 15, 11);
    exact_detect_estimator exact;
    const auto est = stafan.estimate(nl, faults, w);
    const auto ref = exact.estimate(nl, faults, w);
    for (std::size_t i = 0; i < faults.size(); ++i)
        EXPECT_NEAR(est[i], ref[i], 0.05) << to_string(nl, faults[i]);
}

TEST(estimator_factory, known_names) {
    EXPECT_EQ(make_estimator("cop")->name(), "cop");
    EXPECT_EQ(make_estimator("exact-bdd")->name(), "exact-bdd");
    EXPECT_EQ(make_estimator("stafan")->name(), "stafan");
    EXPECT_EQ(make_estimator("monte-carlo")->name(), "monte-carlo");
    EXPECT_THROW(make_estimator("psychic"), invalid_input);
}

// --- redundancy ---------------------------------------------------------------

TEST(redundancy, structural_constants_proven) {
    netlist nl("red");
    const node_id a = nl.add_input("a");
    const node_id zero = nl.add_const(false, "k0");
    const node_id g = nl.add_binary(gate_kind::and_, a, zero, "g");  // == 0
    const node_id y = nl.add_binary(gate_kind::or_, a, g, "y");
    nl.mark_output(y, "y");
    const auto faults = generate_full_faults(nl);
    redundancy_options opt;
    opt.use_bdd_proof = false;
    const auto red = prove_redundant(nl, faults, opt);
    for (std::size_t i = 0; i < faults.size(); ++i) {
        const bool site_is_g = fault_site_driver(nl, faults[i]) == g;
        if (site_is_g && faults[i].value == stuck_at::zero) {
            EXPECT_TRUE(red[i]) << to_string(nl, faults[i]);
        }
    }
}

TEST(redundancy, bdd_proof_finds_logical_redundancy) {
    // y = or(a, and(a, b)): the and-gate is functionally absorbed; its
    // stuck-at-0 is undetectable.
    netlist nl("red2");
    const node_id a = nl.add_input("a");
    const node_id b = nl.add_input("b");
    const node_id g = nl.add_binary(gate_kind::and_, a, b, "g");
    const node_id y = nl.add_binary(gate_kind::or_, a, g, "y");
    nl.mark_output(y, "y");
    const std::vector<fault> faults{{g, -1, stuck_at::zero},
                                    {g, -1, stuck_at::one},
                                    {y, -1, stuck_at::zero}};
    const auto red = prove_redundant(nl, faults);
    EXPECT_TRUE(red[0]);   // g sa0 never changes y
    EXPECT_FALSE(red[1]);  // g sa1 detectable at a=0,b=0? y becomes 1: yes
    EXPECT_FALSE(red[2]);
}

TEST(redundancy, never_flags_detectable_faults) {
    random_circuit_spec spec;
    spec.inputs = 6;
    spec.gates = 30;
    spec.seed = 31;
    const netlist nl = make_random_circuit(spec);
    const auto faults = generate_full_faults(nl);
    const auto red = prove_redundant(nl, faults);
    const auto truth =
        enum_detection_probs(nl, faults, uniform_weights(nl));
    for (std::size_t i = 0; i < faults.size(); ++i) {
        if (red[i]) {
            EXPECT_DOUBLE_EQ(truth[i], 0.0) << to_string(nl, faults[i]);
        }
        // And with the BDD proof enabled, completeness holds too:
        if (truth[i] == 0.0) {
            EXPECT_TRUE(red[i]) << to_string(nl, faults[i]);
        }
    }
}

}  // namespace
}  // namespace wrpt
