// Tests for the parallel-pattern logic simulator and the PPSFP fault
// simulator: cross-checks against naive single-pattern reference paths.

#include "sim/logic_sim.h"

#include <bit>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "helpers.h"

#include "fault/fault.h"
#include "gen/comparator.h"
#include "gen/random_circuit.h"
#include "gen/sharded.h"
#include "gen/suite.h"
#include "sim/fault_sim.h"
#include "sim/patterns.h"
#include "util/error.h"
#include "util/rng.h"

namespace wrpt {
namespace {

/// Naive reference: evaluate every node with scalar gate semantics.
std::vector<bool> naive_eval_all(const netlist& nl,
                                 const std::vector<bool>& inputs) {
    std::vector<bool> value(nl.node_count());
    for (node_id n = 0; n < nl.node_count(); ++n) {
        if (nl.kind(n) == gate_kind::input) {
            value[n] = inputs[nl.input_index(n)];
            continue;
        }
        bool fi[64];
        std::size_t count = 0;
        for (node_id f : nl.fanins(n)) fi[count++] = value[f];
        value[n] = eval_gate_bool(nl.kind(n), fi, count);
    }
    return value;
}

/// Naive faulty evaluation: force the line, recompute everything.
std::vector<bool> naive_faulty_outputs(const netlist& nl,
                                       const std::vector<bool>& inputs,
                                       const fault& f) {
    std::vector<bool> value(nl.node_count());
    for (node_id n = 0; n < nl.node_count(); ++n) {
        bool fi[64];
        const auto fanins = nl.fanins(n);
        for (std::size_t k = 0; k < fanins.size(); ++k) {
            bool v = value[fanins[k]];
            if (!f.is_stem() && f.where == n &&
                static_cast<std::int32_t>(k) == f.pin)
                v = stuck_value(f.value);
            fi[k] = v;
        }
        if (nl.kind(n) == gate_kind::input)
            value[n] = inputs[nl.input_index(n)];
        else
            value[n] = eval_gate_bool(nl.kind(n), fi, fanins.size());
        if (f.is_stem() && f.where == n) value[n] = stuck_value(f.value);
    }
    std::vector<bool> out;
    for (node_id o : nl.outputs()) out.push_back(value[o]);
    return out;
}

class sim_seeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(sim_seeds, block_simulation_matches_naive) {
    random_circuit_spec spec;
    spec.inputs = 9;
    spec.gates = 70;
    spec.seed = GetParam();
    const netlist nl = make_random_circuit(spec);
    simulator sim(nl);
    rng r(spec.seed * 7 + 1);
    std::vector<std::uint64_t> words(nl.input_count());
    for (auto& w : words) w = r.next_word();
    sim.simulate(words);
    for (int b = 0; b < 64; b += 13) {
        std::vector<bool> in(nl.input_count());
        for (std::size_t i = 0; i < in.size(); ++i)
            in[i] = ((words[i] >> b) & 1ULL) != 0;
        const auto naive = naive_eval_all(nl, in);
        for (node_id n = 0; n < nl.node_count(); ++n)
            ASSERT_EQ(((sim.value(n) >> b) & 1ULL) != 0, naive[n])
                << "node " << n << " bit " << b;
    }
}

TEST_P(sim_seeds, detect_mask_matches_naive_fault_injection) {
    random_circuit_spec spec;
    spec.inputs = 8;
    spec.gates = 50;
    spec.seed = GetParam();
    const netlist nl = make_random_circuit(spec);
    const auto faults = generate_full_faults(nl);
    simulator sim(nl);
    rng r(spec.seed + 99);
    std::vector<std::uint64_t> words(nl.input_count());
    for (auto& w : words) w = r.next_word();
    sim.simulate(words);

    // Reference outputs per pattern.
    std::vector<std::vector<bool>> patterns(8);
    for (int b = 0; b < 8; ++b) {
        patterns[b].resize(nl.input_count());
        for (std::size_t i = 0; i < nl.input_count(); ++i)
            patterns[b][i] = ((words[i] >> b) & 1ULL) != 0;
    }

    for (const fault& f : faults) {
        const std::uint64_t mask = sim.detect_mask(f);
        for (int b = 0; b < 8; ++b) {
            const auto good = evaluate(nl, patterns[b]);
            const auto bad = naive_faulty_outputs(nl, patterns[b], f);
            const bool detected = good != bad;
            ASSERT_EQ(((mask >> b) & 1ULL) != 0, detected)
                << to_string(nl, f) << " pattern " << b;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, sim_seeds, ::testing::Values(2, 4, 6, 8, 10));

TEST(simulator, rejects_wrong_word_count) {
    const netlist nl = make_cascaded_comparator(1);
    simulator sim(nl);
    std::vector<std::uint64_t> words(3);
    EXPECT_THROW(sim.simulate(words), invalid_input);
}

TEST(fault_sim, detects_and_drops) {
    const netlist nl = make_cascaded_comparator(1);
    const auto faults = generate_full_faults(nl);
    fault_sim_options opt;
    opt.max_patterns = 1024;
    const auto res = run_weighted_fault_simulation(
        nl, faults, uniform_weights(nl), 0x5eed, opt);
    // The simulator stops early once the live list drains (fault dropping).
    EXPECT_LE(res.patterns_applied, 1024u);
    // An 8-input comparator is fully random testable at 1024 patterns.
    EXPECT_EQ(res.detected_count, faults.size());
    for (const auto& fd : res.first_detected) {
        ASSERT_TRUE(fd.has_value());
        EXPECT_LT(*fd, res.patterns_applied);
    }
}

TEST(fault_sim, respects_non_multiple_of_64_budget) {
    // S1 is random-pattern resistant: its faults are not all detected
    // within 100 patterns, so the budget must bind.
    const netlist nl = build_suite_circuit("S1");
    const auto faults = generate_full_faults(nl);
    fault_sim_options opt;
    opt.max_patterns = 100;
    const auto res = run_weighted_fault_simulation(
        nl, faults, uniform_weights(nl), 3, opt);
    ASSERT_LT(res.detected_count, faults.size());
    EXPECT_EQ(res.patterns_applied, 100u);
    for (const auto& fd : res.first_detected) {
        if (fd.has_value()) {
            EXPECT_LT(*fd, 100u);
        }
    }
}

TEST(fault_sim, coverage_counts_monotone_in_pattern_count) {
    const netlist nl = make_cascaded_comparator(2);
    const auto faults = generate_full_faults(nl);
    fault_sim_options opt;
    opt.max_patterns = 2048;
    const auto res = run_weighted_fault_simulation(
        nl, faults, uniform_weights(nl), 9, opt);
    std::size_t prev = 0;
    for (std::uint64_t n = 16; n <= 2048; n *= 2) {
        const std::size_t now = res.detected_within(n);
        EXPECT_GE(now, prev);
        prev = now;
    }
    const auto curve = coverage_curve(res, faults.size());
    ASSERT_FALSE(curve.empty());
    EXPECT_EQ(curve.back().first, res.patterns_applied);
    for (std::size_t i = 1; i < curve.size(); ++i)
        EXPECT_GE(curve[i].second, curve[i - 1].second);
}

TEST(fault_sim, weighted_patterns_hit_rare_faults) {
    // The AND-tree output stuck-at-0 of a 12-input conjunction needs the
    // all-ones pattern: p = 2^-12 conventionally, (0.9)^12 ~ 0.28 with
    // weights 0.9. 512 weighted patterns find it; 512 conventional ones
    // almost surely do not.
    netlist nl("andtree");
    std::vector<node_id> xs;
    for (int i = 0; i < 12; ++i) xs.push_back(nl.add_input(testing::label_x(i)));
    const node_id root = nl.add_tree(gate_kind::and_, xs);
    nl.mark_output(root, "y");
    const std::vector<fault> faults{{root, -1, stuck_at::zero}};

    fault_sim_options opt;
    opt.max_patterns = 512;
    const auto conventional = run_weighted_fault_simulation(
        nl, faults, uniform_weights(nl, 0.5), 1234, opt);
    const auto weighted = run_weighted_fault_simulation(
        nl, faults, uniform_weights(nl, 0.9), 1234, opt);
    EXPECT_EQ(conventional.detected_count, 0u);
    EXPECT_EQ(weighted.detected_count, 1u);
}

// --- cross-version golden ----------------------------------------------

/// One golden line: detected count, patterns applied and a 64-bit FNV-1a
/// digest of first_detected (8 little-endian bytes per fault, all ones
/// for a fault never detected).
std::string golden_line(const std::string& name, const char* weights,
                        const fault_sim_result& r) {
    std::uint64_t digest = 0xcbf29ce484222325ull;
    for (const auto& fd : r.first_detected) {
        const std::uint64_t v = fd.value_or(~0ull);
        for (int b = 0; b < 64; b += 8) {
            digest ^= (v >> b) & 0xffu;
            digest *= 0x100000001b3ull;
        }
    }
    char line[256];
    std::snprintf(line, sizeof line, "%s %s %zu %llu %016llx\n",
                  name.c_str(), weights, r.detected_count,
                  static_cast<unsigned long long>(r.patterns_applied),
                  static_cast<unsigned long long>(digest));
    return line;
}

// Every suite circuit, the 224-slice sharded array and the one-stage
// cascaded comparator (which detects every fault early, pinning the
// early-stop accounting), simulated for a 1000-pattern budget (not a
// multiple of 64) under uniform weights and under a seeded vector in
// [0.1, 0.9], at threads 1 and 4, must reproduce
// tests/golden/fault_sim_suite.golden byte for byte. On a mismatch the
// fresh lines are written to fault_sim_suite.actual in the working
// directory; copy that over the golden only for a change that is meant
// to move results.
TEST(fault_sim, suite_matches_golden) {
    std::vector<std::pair<std::string, netlist>> circuits;
    for (const suite_entry& e : benchmark_suite())
        circuits.emplace_back(e.name, e.build());
    circuits.emplace_back("sharded", make_sharded_comparators(224, 8));
    circuits.emplace_back("cascaded1", make_cascaded_comparator(1));

    std::string actual;
    for (std::size_t k = 0; k < circuits.size(); ++k) {
        const auto& [name, nl] = circuits[k];
        const auto faults = generate_full_faults(nl);
        rng r(0xfa17 + k);
        weight_vector seeded(nl.input_count());
        for (double& w : seeded) w = 0.1 + 0.8 * r.next_double();
        const std::pair<const char*, weight_vector> inputs[] = {
            {"uniform", uniform_weights(nl)}, {"seeded", seeded}};
        for (const auto& [label, weights] : inputs) {
            std::string lines[2];
            for (unsigned t : {0u, 1u}) {
                fault_sim_options opt;
                opt.max_patterns = 1000;
                opt.threads = t == 0 ? 1u : 4u;
                lines[t] = golden_line(
                    name, label,
                    run_weighted_fault_simulation(nl, faults, weights,
                                                  0x5eed + k, opt));
            }
            EXPECT_EQ(lines[1], lines[0]) << name << ": threads 4 vs 1";
            actual += lines[0];
        }
    }

    std::ifstream in(WRPT_GOLDEN_DIR "/fault_sim_suite.golden",
                     std::ios::binary);
    const std::string golden{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
    if (actual != golden) {
        std::ofstream("fault_sim_suite.actual", std::ios::binary) << actual;
        FAIL() << "fault sim results moved; fresh lines written to "
                  "fault_sim_suite.actual\n--- golden\n"
               << golden << "--- actual\n"
               << actual;
    }
}

// TSan multiplies runtimes; the thread-count suite thins S2's fault list
// under it but keeps the same chunk shapes.
#if defined(__SANITIZE_THREAD__)
#define WRPT_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define WRPT_TSAN 1
#endif
#endif
#ifndef WRPT_TSAN
#define WRPT_TSAN 0
#endif

/// Runs `faults` at each thread count against the threads 1 reference;
/// every count must give the same first detections and stopping point.
void expect_thread_count_invariant(
    const netlist& nl, const std::vector<fault>& faults, std::uint64_t budget,
    std::initializer_list<unsigned> thread_counts) {
    const weight_vector w = uniform_weights(nl);
    fault_sim_options ref;
    ref.max_patterns = budget;
    ref.threads = 1;
    const fault_sim_result want =
        run_weighted_fault_simulation(nl, faults, w, 0xfeed, ref);

    for (const unsigned threads : thread_counts) {
        fault_sim_options o = ref;
        o.threads = threads;
        const fault_sim_result got =
            run_weighted_fault_simulation(nl, faults, w, 0xfeed, o);
        SCOPED_TRACE(nl.name() + " budget " + std::to_string(budget) +
                     " t" + std::to_string(threads));
        EXPECT_EQ(want.patterns_applied, got.patterns_applied);
        EXPECT_EQ(want.detected_count, got.detected_count);
        ASSERT_EQ(want.first_detected.size(), got.first_detected.size());
        for (std::size_t i = 0; i < want.first_detected.size(); ++i)
            ASSERT_EQ(want.first_detected[i], got.first_detected[i])
                << "fault " << i;
    }
}

// The full fault-simulation result — first_detected per fault AND
// patterns_applied — is invariant across thread counts, including budgets
// that are not multiples of 64. Fault chunks are strided over the fault
// list, so 3 threads gives uneven chunks and 64 asks for far more chunks
// than the pool can run.
TEST(fault_sim, thread_count_invariant) {
    for (const char* name : {"S1", "c432"}) {
        const netlist nl = build_suite_circuit(name);
        const std::vector<fault> faults = generate_full_faults(nl);
        for (const std::uint64_t budget : {320u, 832u})
            expect_thread_count_invariant(nl, faults, budget,
                                          {1u, 2u, 3u, 8u, 64u});
    }
    // S2's 21k faults are the load the chunks are for; its budget (a
    // partial tail block) keeps the test short.
    const netlist s2 = build_suite_circuit("S2");
    std::vector<fault> s2_faults;
    const std::vector<fault> all = generate_full_faults(s2);
    for (std::size_t i = 0; i < all.size(); i += WRPT_TSAN ? 16 : 1)
        s2_faults.push_back(all[i]);
    expect_thread_count_invariant(s2, s2_faults, 200, {1u, 2u, 3u, 8u, 64u});
    // One fault: the chunk count is capped at the fault count.
    const netlist nl = build_suite_circuit("c432");
    const std::vector<fault> one{generate_full_faults(nl).back()};
    expect_thread_count_invariant(nl, one, 832, {8u});
}

TEST(patterns, explicit_source_padding_and_order) {
    std::vector<std::vector<bool>> pats{{true, false}, {false, true},
                                        {true, true}};
    explicit_pattern_source src(pats);
    std::vector<std::uint64_t> words;
    src.next_block(words);
    ASSERT_EQ(words.size(), 2u);
    EXPECT_EQ(words[0] & 0x7, 0b101u);
    EXPECT_EQ(words[1] & 0x7, 0b110u);
    EXPECT_EQ(words[0] >> 3, 0u);  // zero padding
}

TEST(patterns, weighted_source_respects_weights) {
    weight_vector w{0.1, 0.9, 0.5};
    weighted_random_source src(w, 42);
    std::vector<std::uint64_t> words;
    std::uint64_t ones[3] = {0, 0, 0};
    const int blocks = 2000;
    for (int b = 0; b < blocks; ++b) {
        src.next_block(words);
        for (int i = 0; i < 3; ++i)
            ones[i] += static_cast<std::uint64_t>(std::popcount(words[i]));
    }
    for (int i = 0; i < 3; ++i) {
        const double freq = static_cast<double>(ones[i]) / (64.0 * blocks);
        EXPECT_NEAR(freq, w[i], 0.01) << "input " << i;
    }
}

TEST(patterns, draw_pattern_dimension) {
    rng r(5);
    const auto p = draw_pattern(r, {0.0, 1.0, 0.5});
    ASSERT_EQ(p.size(), 3u);
    EXPECT_FALSE(p[0]);
    EXPECT_TRUE(p[1]);
}

}  // namespace
}  // namespace wrpt
