// Tests for the PODEM engine: generated tests must detect their faults
// (the engine self-verifies), redundancy verdicts must agree with exact
// (enumeration / BDD) ground truth.

#include "atpg/compact.h"
#include "atpg/podem.h"

#include <gtest/gtest.h>

#include "helpers.h"

#include "gen/comparator.h"
#include "gen/divider.h"
#include "gen/random_circuit.h"
#include "io/weights_io.h"
#include "prob/redundancy.h"
#include "sim/fault_sim.h"
#include "sim/logic_sim.h"
#include "sim/patterns.h"
#include "util/error.h"
#include "util/rng.h"

namespace wrpt {
namespace {

/// Exhaustive detectability oracle for small circuits.
bool detectable_by_enumeration(const netlist& nl, const fault& f) {
    const std::size_t ins = nl.input_count();
    for (std::uint64_t v = 0; v < (1ULL << ins); ++v) {
        std::vector<bool> in(ins);
        for (std::size_t i = 0; i < ins; ++i) in[i] = ((v >> i) & 1ULL) != 0;
        if (evaluate_with_fault(nl, in, f) != evaluate(nl, in)) return true;
    }
    return false;
}

TEST(podem, generates_tests_for_simple_gate) {
    netlist nl("g");
    const node_id a = nl.add_input("a");
    const node_id b = nl.add_input("b");
    const node_id g = nl.add_binary(gate_kind::and_, a, b, "g");
    nl.mark_output(g, "y");
    podem_engine engine(nl);
    // and-output sa0 needs a=b=1.
    const podem_result r = engine.generate({g, -1, stuck_at::zero});
    ASSERT_EQ(r.status, podem_status::detected);
    EXPECT_TRUE(r.pattern[0]);
    EXPECT_TRUE(r.pattern[1]);
}

TEST(podem, proves_classic_redundancy) {
    // y = or(a, and(a, b)): the and-gate sa0 is undetectable (absorption).
    netlist nl("red");
    const node_id a = nl.add_input("a");
    const node_id b = nl.add_input("b");
    const node_id g = nl.add_binary(gate_kind::and_, a, b, "g");
    const node_id y = nl.add_binary(gate_kind::or_, a, g, "y");
    nl.mark_output(y, "y");
    podem_engine engine(nl);
    EXPECT_EQ(engine.generate({g, -1, stuck_at::zero}).status,
              podem_status::redundant);
    EXPECT_EQ(engine.generate({g, -1, stuck_at::one}).status,
              podem_status::detected);
}

TEST(podem, hard_conjunction_found_deterministically) {
    // The 2^-16 fault random patterns struggle with is a one-shot for PODEM.
    netlist nl("and16");
    std::vector<node_id> xs;
    for (int i = 0; i < 16; ++i)
        xs.push_back(nl.add_input(testing::label_x(i)));
    const node_id root = nl.add_tree(gate_kind::and_, xs);
    nl.mark_output(root, "y");
    podem_engine engine(nl);
    const podem_result r = engine.generate({root, -1, stuck_at::zero});
    ASSERT_EQ(r.status, podem_status::detected);
    for (bool bit : r.pattern) EXPECT_TRUE(bit);
    EXPECT_LT(r.backtracks, 4u);
}

class podem_seeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(podem_seeds, verdicts_match_enumeration_oracle) {
    random_circuit_spec spec;
    spec.inputs = 8;
    spec.gates = 40;
    spec.seed = GetParam();
    const netlist nl = make_random_circuit(spec);
    const auto faults = generate_full_faults(nl);
    podem_options opt;
    opt.backtrack_limit = 1u << 14;  // generous: no aborts on 8 inputs
    podem_engine engine(nl, opt);
    for (const fault& f : faults) {
        const podem_result r = engine.generate(f);
        const bool truth = detectable_by_enumeration(nl, f);
        ASSERT_NE(r.status, podem_status::aborted) << to_string(nl, f);
        EXPECT_EQ(r.status == podem_status::detected, truth)
            << to_string(nl, f) << " seed " << spec.seed;
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, podem_seeds, ::testing::Values(3, 6, 9, 12, 15));

TEST(podem, agrees_with_bdd_redundancy_proof) {
    random_circuit_spec spec;
    spec.inputs = 7;
    spec.gates = 35;
    spec.seed = 42;
    const netlist nl = make_random_circuit(spec);
    const auto faults = generate_full_faults(nl);
    const auto red = prove_redundant(nl, faults);  // BDD-complete
    podem_options opt;
    opt.backtrack_limit = 1u << 14;
    podem_engine engine(nl, opt);
    for (std::size_t i = 0; i < faults.size(); ++i) {
        const podem_result r = engine.generate(faults[i]);
        ASSERT_NE(r.status, podem_status::aborted);
        EXPECT_EQ(r.status == podem_status::redundant, static_cast<bool>(red[i]))
            << to_string(nl, faults[i]);
    }
}

TEST(podem, classify_faults_counts) {
    const netlist nl = make_cascaded_comparator(2, "cmp8a");
    const auto faults = generate_full_faults(nl);
    const fault_classification cls = classify_faults(nl, faults);
    EXPECT_EQ(cls.status.size(), faults.size());
    EXPECT_EQ(cls.detected + cls.redundant + cls.aborted, faults.size());
    // The comparator is fully testable.
    EXPECT_EQ(cls.detected, faults.size());
    EXPECT_EQ(cls.tests.size(), cls.detected);
}

TEST(podem, accelerated_flow_random_then_deterministic) {
    // Section 5.2 flow: random patterns with fault dropping first, PODEM
    // only for the remainder; the union classifies every fault.
    const netlist nl = make_divider(8, 4, "div84");
    const auto faults = generate_full_faults(nl);
    fault_sim_options fo;
    fo.max_patterns = 256;
    const auto sim = run_weighted_fault_simulation(
        nl, faults, uniform_weights(nl), 0xacce1, fo);
    std::vector<fault> open;
    for (std::size_t i = 0; i < faults.size(); ++i)
        if (!sim.first_detected[i].has_value()) open.push_back(faults[i]);
    EXPECT_LT(open.size(), faults.size() / 4);  // random did the bulk

    podem_options po;
    po.backtrack_limit = 1u << 12;
    const auto cls = classify_faults(nl, open, po);
    EXPECT_EQ(cls.aborted, 0u);
    // Everything left is either deterministically testable or redundant;
    // the array divider does contain true redundancies.
    EXPECT_EQ(cls.detected + cls.redundant, open.size());
    EXPECT_GT(cls.redundant, 0u);
}

TEST(compaction, preserves_coverage_and_shrinks) {
    const netlist nl = make_cascaded_comparator(2, "cmp8x");
    const auto faults = generate_full_faults(nl);

    // Build a deliberately redundant test set: 512 random + PODEM tests.
    rng r(0xc0);
    std::vector<std::vector<bool>> patterns;
    for (int i = 0; i < 512; ++i)
        patterns.push_back(draw_pattern(r, uniform_weights(nl)));
    const auto cls = classify_faults(nl, faults);
    for (const auto& t : cls.tests) patterns.push_back(t);

    const compaction_result res = compact_test_set(nl, faults, patterns);
    EXPECT_EQ(res.original_size, patterns.size());
    EXPECT_LT(res.patterns.size(), patterns.size() / 2);
    EXPECT_EQ(res.detected, faults.size());

    // The compacted set really covers everything.
    explicit_pattern_source src(res.patterns);
    fault_sim_options fo;
    fo.max_patterns = res.patterns.size();
    const auto sim = run_fault_simulation(nl, faults, src, fo);
    EXPECT_EQ(sim.detected_count, faults.size());
}

// A block shorter than 64 patterns is padded with all-zero patterns;
// those bits must not count as detections. y = nor(a, b) stuck-at-0 is
// detected only by a = b = 0, which none of the 65 patterns is.
TEST(compaction, padding_bits_are_not_patterns) {
    netlist nl("nor2");
    const node_id a = nl.add_input("a");
    const node_id b = nl.add_input("b");
    const node_id y = nl.add_binary(gate_kind::nor_, a, b);
    nl.mark_output(y, "y");
    const std::vector<fault> faults{{y, -1, stuck_at::zero},
                                    {y, -1, stuck_at::one}};
    const std::vector<std::vector<bool>> patterns(65, {true, true});

    const compaction_result res = compact_test_set(nl, faults, patterns);
    EXPECT_EQ(res.detected, 1u);  // only y stuck-at-1
    ASSERT_EQ(res.patterns.size(), 1u);
    EXPECT_EQ(res.patterns[0], (std::vector<bool>{true, true}));
}

TEST(compaction, empty_and_width_checks) {
    const netlist nl = make_cascaded_comparator(1, "cmp4x");
    const auto faults = generate_full_faults(nl);
    const auto empty = compact_test_set(nl, faults, {});
    EXPECT_TRUE(empty.patterns.empty());
    std::vector<std::vector<bool>> bad{std::vector<bool>(3, false)};
    EXPECT_THROW(compact_test_set(nl, faults, bad), invalid_input);
}

}  // namespace
}  // namespace wrpt
