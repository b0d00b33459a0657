// Tests for the stuck-at fault model and equivalence collapsing.

#include "fault/fault.h"

#include <set>

#include <gtest/gtest.h>

#include "gen/comparator.h"
#include "gen/random_circuit.h"
#include "sim/logic_sim.h"

namespace wrpt {
namespace {

netlist chain_example() {
    // y = nand(and(a,b), not(c)), with a fanout on a.
    netlist nl("chain");
    const node_id a = nl.add_input("a");
    const node_id b = nl.add_input("b");
    const node_id c = nl.add_input("c");
    const node_id g1 = nl.add_binary(gate_kind::and_, a, b, "g1");
    const node_id g2 = nl.add_unary(gate_kind::not_, c, "g2");
    const node_id g3 = nl.add_binary(gate_kind::nand_, g1, g2, "g3");
    const node_id g4 = nl.add_binary(gate_kind::or_, a, g3, "g4");
    nl.mark_output(g4, "y");
    return nl;
}

TEST(fault_list, full_list_counts_match_lines) {
    const netlist nl = chain_example();
    const auto faults = generate_full_faults(nl);
    // Lines: 7 stems + 2 branches (a has fanout 2: into g1 and g4).
    EXPECT_EQ(nl.stats().line_count, 9u);
    EXPECT_EQ(faults.size(), 2 * 9u);
}

TEST(fault_list, dead_nodes_and_constants_skipped) {
    netlist nl("d");
    const node_id a = nl.add_input("a");
    const node_id k = nl.add_const(false, "k");
    const node_id g = nl.add_binary(gate_kind::or_, a, k, "g");
    const node_id dead = nl.add_unary(gate_kind::not_, a, "dead");
    (void)dead;
    nl.mark_output(g, "y");
    const auto faults = generate_full_faults(nl);
    for (const auto& f : faults) {
        EXPECT_NE(f.where, dead);
        if (f.where == k && f.is_stem()) {
            EXPECT_EQ(f.value, stuck_at::one);  // sa0 on const0 skipped
        }
    }
    // a has fanout 2 (g and dead)? dead is skipped as a gate but still
    // counts as fanout; branch faults on the dead gate's pins are not
    // generated because the gate itself is dead... but pins of live gates
    // are. The invariant that matters: every fault site is live.
    for (const auto& f : faults)
        EXPECT_TRUE(nl.fanout_count(f.where) > 0 || nl.is_output(f.where));
}

TEST(fault_strings, human_readable) {
    const netlist nl = chain_example();
    const fault stem{nl.find("g1"), -1, stuck_at::zero};
    EXPECT_EQ(to_string(nl, stem), "g1 sa0");
    const fault branch{nl.find("g4"), 0, stuck_at::one};
    EXPECT_EQ(to_string(nl, branch), "g4.in0 sa1");
}

TEST(fault_site, driver_resolution) {
    const netlist nl = chain_example();
    const fault stem{nl.find("g3"), -1, stuck_at::zero};
    EXPECT_EQ(fault_site_driver(nl, stem), nl.find("g3"));
    const fault branch{nl.find("g4"), 0, stuck_at::one};
    EXPECT_EQ(fault_site_driver(nl, branch), nl.find("a"));
}

TEST(collapse, classes_partition_the_full_list) {
    const netlist nl = chain_example();
    const collapsed_faults cf = collapse_faults(nl);
    EXPECT_EQ(cf.class_of.size(), cf.all.size());
    EXPECT_LE(cf.class_count(), cf.all.size());
    EXPECT_GT(cf.class_count(), 0u);
    // Representative of each class is a member with that class id.
    for (std::size_t c = 0; c < cf.class_count(); ++c) {
        const std::uint32_t rep = cf.representative[c];
        ASSERT_LT(rep, cf.all.size());
        EXPECT_EQ(cf.class_of[rep], c);
    }
    // Collapsing must reduce an and/nand chain.
    EXPECT_LT(cf.class_count(), cf.all.size());
}

/// Exhaustively compare detection behaviour of two faults: equivalent
/// faults must be detected by exactly the same input patterns.
bool same_test_set(const netlist& nl, const fault& f, const fault& g) {
    const std::size_t ins = nl.input_count();
    for (std::uint64_t v = 0; v < (1ULL << ins); ++v) {
        std::vector<bool> in(ins);
        for (std::size_t i = 0; i < ins; ++i) in[i] = ((v >> i) & 1ULL) != 0;
        const auto good = evaluate(nl, in);
        const bool df = evaluate_with_fault(nl, in, f) != good;
        const bool dg = evaluate_with_fault(nl, in, g) != good;
        if (df != dg) return false;
    }
    return true;
}

TEST(collapse, equivalent_faults_have_identical_test_sets) {
    const netlist nl = chain_example();
    const collapsed_faults cf = collapse_faults(nl);
    for (std::size_t i = 0; i < cf.all.size(); ++i) {
        const std::size_t rep = cf.representative[cf.class_of[i]];
        if (rep == i) continue;
        EXPECT_TRUE(same_test_set(nl, cf.all[i], cf.all[rep]))
            << to_string(nl, cf.all[i]) << " vs " << to_string(nl, cf.all[rep]);
    }
}

class collapse_seeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(collapse_seeds, equivalence_classes_verified_exhaustively) {
    random_circuit_spec spec;
    spec.inputs = 6;
    spec.gates = 24;
    spec.seed = GetParam();
    const netlist nl = make_random_circuit(spec);
    const collapsed_faults cf = collapse_faults(nl);
    for (std::size_t i = 0; i < cf.all.size(); ++i) {
        const std::size_t rep = cf.representative[cf.class_of[i]];
        if (rep == i) continue;
        ASSERT_TRUE(same_test_set(nl, cf.all[i], cf.all[rep]))
            << "seed " << spec.seed << ": " << to_string(nl, cf.all[i])
            << " vs " << to_string(nl, cf.all[rep]);
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, collapse_seeds, ::testing::Values(3, 7, 11, 19));

TEST(collapse, primary_output_driving_one_gate_keeps_its_stem_apart) {
    // x = and(a,b) is a primary output and feeds only y = or(x, c). The
    // stem fault on x is observed at x itself, so it is not equivalent to
    // y's pin fault, and neither may land in the class of y's output
    // fault.
    netlist nl("po_fanout1");
    const node_id a = nl.add_input("a");
    const node_id b = nl.add_input("b");
    const node_id c = nl.add_input("c");
    const node_id x = nl.add_binary(gate_kind::and_, a, b, "x");
    const node_id y = nl.add_binary(gate_kind::or_, x, c, "y");
    nl.mark_output(x, "x");
    nl.mark_output(y, "y");
    const collapsed_faults cf = collapse_faults(nl);
    for (std::size_t i = 0; i < cf.all.size(); ++i) {
        const std::size_t rep = cf.representative[cf.class_of[i]];
        if (rep == i) continue;
        ASSERT_TRUE(same_test_set(nl, cf.all[i], cf.all[rep]))
            << to_string(nl, cf.all[i]) << " vs " << to_string(nl, cf.all[rep]);
    }
}

TEST(collapse, comparator_reduction_is_substantial) {
    const netlist nl = make_cascaded_comparator(2);
    const collapsed_faults cf = collapse_faults(nl);
    // Equivalence collapsing typically removes 40-60% of stuck-at faults in
    // and/or-dominated logic.
    EXPECT_LT(cf.class_count(), cf.all.size() * 3 / 4);
}

}  // namespace
}  // namespace wrpt
