// Tests for the staged OPTIMIZE pipeline: stage sequence/contract
// introspection, the sharded ANALYSIS surface, the sharded NORMALIZE
// reduction, and the headline guarantee — optimized weights, sweep
// history, and test-length reports bit-identical across thread counts
// {1, 2, 8}.

#include "opt/pipeline.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "exec/thread_pool.h"
#include "gen/comparator.h"
#include "gen/random_circuit.h"
#include "gen/sharded.h"
#include "gen/suite.h"
#include "opt/normalize.h"
#include "prob/detect.h"
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

// --- stage contract ------------------------------------------------------

TEST(pipeline, stage_sequence_matches_the_paper) {
    const netlist nl = make_cascaded_comparator(1, "cmp4pipe");
    const auto faults = generate_full_faults(nl);
    cop_detect_estimator cop;
    optimize_pipeline pipe(nl, faults, cop, uniform_weights(nl), {});

    const char* expected[] = {"ANALYSIS", "SORT",     "NORMALIZE",
                              "PREPARE",  "MINIMIZE", "SADDLE_ESCAPE"};
    const auto stages = pipe.stages();
    ASSERT_EQ(stages.size(), 6u);
    for (std::size_t s = 0; s < stages.size(); ++s) {
        EXPECT_STREQ(stages[s]->name(), expected[s]);
        // Every stage declares its context contract.
        EXPECT_GT(std::strlen(stages[s]->reads()), 0u) << expected[s];
        EXPECT_GT(std::strlen(stages[s]->writes()), 0u) << expected[s];
    }
}

TEST(pipeline, pipeline_run_equals_optimize_weights) {
    const netlist nl = make_cascaded_comparator(2, "cmp8pipe");
    const auto faults = generate_full_faults(nl);
    cop_detect_estimator a;
    const optimize_result via_wrapper =
        optimize_weights(nl, faults, a, uniform_weights(nl));
    cop_detect_estimator b;
    optimize_pipeline pipe(nl, faults, b, uniform_weights(nl), {});
    const optimize_result via_pipeline = pipe.run();
    EXPECT_EQ(via_wrapper.weights, via_pipeline.weights);
    EXPECT_EQ(via_wrapper.final_test_length, via_pipeline.final_test_length);
    EXPECT_EQ(via_wrapper.analysis_calls, via_pipeline.analysis_calls);
}

// --- sharded ANALYSIS ----------------------------------------------------

TEST(sharded_analysis, estimate_faults_matches_estimate_on_engine_path) {
    const netlist nl = make_sharded_comparators(8, 4);
    const auto faults = generate_full_faults(nl);
    const weight_vector w = uniform_weights(nl);

    cop_detect_estimator seq;
    seq.set_engine_cone_limit(1.0);
    const std::vector<double> reference = seq.estimate(nl, faults, w);

    for (unsigned threads : {1u, 2u, 8u}) {
        cop_detect_estimator cop;
        cop.set_engine_cone_limit(1.0);
        const std::vector<double> sharded = cop.estimate_faults(
            nl, {faults.data(), faults.size()}, w, threads);
        ASSERT_EQ(sharded.size(), reference.size());
        for (std::size_t j = 0; j < reference.size(); ++j)
            ASSERT_EQ(sharded[j], reference[j])
                << "threads " << threads << " fault " << j;
    }
}

TEST(sharded_analysis, estimate_faults_matches_on_full_recompute_path) {
    // Circuits above the cone limit take the full-recompute path, whose
    // per-fault read shards too.
    const netlist nl = make_test_circuit(51, 10, 140);
    const auto faults = generate_full_faults(nl);
    const weight_vector w = uniform_weights(nl);

    cop_detect_estimator seq;
    seq.set_incremental(false);
    const std::vector<double> reference = seq.estimate(nl, faults, w);

    for (unsigned threads : {2u, 8u}) {
        cop_detect_estimator cop;
        cop.set_incremental(false);
        const std::vector<double> sharded = cop.estimate_faults(
            nl, {faults.data(), faults.size()}, w, threads);
        ASSERT_EQ(sharded.size(), reference.size());
        for (std::size_t j = 0; j < reference.size(); ++j)
            ASSERT_EQ(sharded[j], reference[j])
                << "threads " << threads << " fault " << j;
    }
}

TEST(sharded_analysis, fault_shard_spans_answer_subqueries) {
    // The span surface works on shards, not just the full list — the
    // contract the ANALYSIS stage's partitioning rests on.
    const netlist nl = make_sharded_comparators(6, 3);
    const auto faults = generate_full_faults(nl);
    const weight_vector w = uniform_weights(nl);
    cop_detect_estimator cop;
    cop.set_engine_cone_limit(1.0);
    const std::vector<double> full =
        cop.estimate_faults(nl, {faults.data(), faults.size()}, w, 1);
    const std::size_t half = faults.size() / 2;
    const std::vector<double> lo =
        cop.estimate_faults(nl, {faults.data(), half}, w, 2);
    const std::vector<double> hi = cop.estimate_faults(
        nl, {faults.data() + half, faults.size() - half}, w, 2);
    for (std::size_t j = 0; j < half; ++j) ASSERT_EQ(lo[j], full[j]);
    for (std::size_t j = half; j < faults.size(); ++j)
        ASSERT_EQ(hi[j - half], full[j]);
}

TEST(sharded_analysis, estimator_pool_counters_track_warm_reuse) {
    const netlist nl = make_sharded_comparators(6, 3);
    const auto faults = generate_full_faults(nl);
    cop_detect_estimator cop;
    cop.set_engine_cone_limit(1.0);

    weight_vector w = uniform_weights(nl);
    (void)cop.estimate(nl, faults, w);
    EXPECT_EQ(cop.stats().pool_misses, 1u);
    EXPECT_EQ(cop.stats().pool_hits, 0u);

    w[0] = 0.9;  // base move: the warm engine re-syncs, no rebuild
    (void)cop.estimate(nl, faults, w);
    EXPECT_EQ(cop.stats().pool_misses, 1u);
    EXPECT_EQ(cop.stats().pool_hits, 1u);
    EXPECT_EQ(cop.stats().engine_builds, 1u);
}

// --- sharded NORMALIZE ---------------------------------------------------

TEST(sharded_normalize, matches_sequential_for_every_thread_count) {
    // Large sorted lists (forcing several window extensions) with many
    // near-equal hard faults, so the scan inspects thousands of terms.
    rng r(99);
    std::vector<double> sorted;
    for (std::size_t i = 0; i < 20000; ++i)
        sorted.push_back(1e-4 * (1.0 + 1e-6 * static_cast<double>(i)) +
                         1e-9 * r.next_double());
    std::sort(sorted.begin(), sorted.end());

    const double q = 0.001;
    const normalize_result reference = normalize_sorted(sorted, q);
    ASSERT_TRUE(reference.feasible);
    EXPECT_GT(reference.relevant_faults, 1000u);  // the scan went deep

    for (unsigned threads : {1u, 2u, 8u}) {
        normalize_exec exec;
        exec.pool = &shared_thread_pool();
        exec.threads = threads;
        exec.shard = 512;
        const normalize_result sharded = normalize_sorted(sorted, q, exec);
        EXPECT_EQ(sharded.feasible, reference.feasible);
        EXPECT_EQ(sharded.test_length, reference.test_length);
        EXPECT_EQ(sharded.relevant_faults, reference.relevant_faults);
    }
}

TEST(sharded_normalize, small_lists_and_edge_cases_unchanged) {
    normalize_exec exec;
    exec.pool = &shared_thread_pool();
    exec.threads = 8;
    exec.shard = 4;

    const std::vector<double> empty;
    EXPECT_TRUE(normalize_sorted(empty, 0.01, exec).feasible);
    EXPECT_EQ(normalize_sorted(empty, 0.01, exec).test_length, 0.0);

    const std::vector<double> undetectable{0.0, 0.5};
    EXPECT_FALSE(normalize_sorted(undetectable, 0.01, exec).feasible);

    const std::vector<double> simple{0.01, 0.2, 0.9};
    const normalize_result a = normalize_sorted(simple, 0.001);
    const normalize_result b = normalize_sorted(simple, 0.001, exec);
    EXPECT_EQ(a.test_length, b.test_length);
    EXPECT_EQ(a.relevant_faults, b.relevant_faults);
}

// --- the headline guarantee ---------------------------------------------

TEST(sharded_pipeline, optimize_bit_identical_across_thread_counts) {
    const netlist nl = make_sharded_comparators(6, 4);
    const auto faults = generate_full_faults(nl);

    std::vector<optimize_result> runs;
    for (unsigned threads : {1u, 2u, 8u}) {
        cop_detect_estimator cop;
        cop.set_engine_cone_limit(1.0);
        cop.set_threads(threads);  // PREPARE probe sharding
        optimize_options opt;
        opt.threads = threads;     // ANALYSIS/NORMALIZE stage sharding
        runs.push_back(
            optimize_weights(nl, faults, cop, uniform_weights(nl), opt));
    }
    for (std::size_t t = 1; t < runs.size(); ++t) {
        EXPECT_EQ(runs[t].weights, runs[0].weights) << "threads variant " << t;
        EXPECT_EQ(runs[t].initial_test_length, runs[0].initial_test_length);
        EXPECT_EQ(runs[t].final_test_length, runs[0].final_test_length);
        EXPECT_EQ(runs[t].analysis_calls, runs[0].analysis_calls);
        ASSERT_EQ(runs[t].history.size(), runs[0].history.size());
        for (std::size_t s = 0; s < runs[0].history.size(); ++s) {
            EXPECT_EQ(runs[t].history[s].test_length,
                      runs[0].history[s].test_length)
                << "sweep " << s;
            EXPECT_EQ(runs[t].history[s].relevant_faults,
                      runs[0].history[s].relevant_faults);
        }
    }
}

// --- cross-version golden ----------------------------------------------

/// One golden line: both lengths at %.17g, the sweep count, the
/// analysis-call count and a 64-bit FNV-1a digest of the weight bytes.
std::string golden_line(const std::string& name, const optimize_result& r) {
    std::uint64_t digest = 0xcbf29ce484222325ull;
    const auto* bytes =
        reinterpret_cast<const unsigned char*>(r.weights.data());
    for (std::size_t b = 0; b < r.weights.size() * sizeof(double); ++b) {
        digest ^= bytes[b];
        digest *= 0x100000001b3ull;
    }
    char line[256];
    std::snprintf(line, sizeof line, "%s %.17g %.17g %zu %zu %016llx\n",
                  name.c_str(), r.initial_test_length, r.final_test_length,
                  r.history.size(), r.analysis_calls,
                  static_cast<unsigned long long>(digest));
    return line;
}

// Every suite circuit plus the 224-slice sharded array, optimized from a
// fixed seeded start in [0.48, 0.52] at threads 1 and 8, must reproduce
// tests/golden/optimize_suite.golden byte for byte. Unlike the
// thread-count tests above, this pins the results across versions: an
// optimizer change that moves a single bit of any weight fails here. On a
// mismatch the fresh lines are written to optimize_suite.actual in the
// working directory; copy that over the golden only for a change that is
// meant to move results.
TEST(pipeline, optimize_suite_matches_golden) {
    std::vector<std::pair<std::string, netlist>> circuits;
    for (const suite_entry& e : benchmark_suite())
        circuits.emplace_back(e.name, e.build());
    circuits.emplace_back("sharded", make_sharded_comparators(224, 8));

    std::string actual;
    for (std::size_t k = 0; k < circuits.size(); ++k) {
        const auto& [name, nl] = circuits[k];
        const auto faults = generate_full_faults(nl);
        rng r(0x601d + k);
        weight_vector start(nl.input_count());
        for (double& w : start) w = 0.48 + 0.04 * r.next_double();
        std::string lines[2];
        for (unsigned t : {0u, 1u}) {
            const unsigned threads = t == 0 ? 1u : 8u;
            cop_detect_estimator cop;
            cop.set_threads(threads);
            optimize_options opt;
            opt.threads = threads;
            lines[t] = golden_line(
                name, optimize_weights(nl, faults, cop, start, opt));
        }
        EXPECT_EQ(lines[1], lines[0]) << name << ": threads 8 vs 1";
        actual += lines[0];
    }

    std::ifstream in(WRPT_GOLDEN_DIR "/optimize_suite.golden",
                     std::ios::binary);
    const std::string golden{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
    if (actual != golden) {
        std::ofstream("optimize_suite.actual", std::ios::binary) << actual;
        FAIL() << "optimize results moved; fresh lines written to "
                  "optimize_suite.actual\n--- golden\n"
               << golden << "--- actual\n"
               << actual;
    }
}

TEST(sharded_pipeline, test_length_report_bit_identical_across_threads) {
    const netlist nl = make_sharded_comparators(8, 4);
    const auto faults = generate_full_faults(nl);
    const weight_vector w = uniform_weights(nl);

    std::vector<test_length_report> reports;
    for (unsigned threads : {1u, 2u, 8u}) {
        cop_detect_estimator cop;
        cop.set_engine_cone_limit(1.0);
        reports.push_back(
            required_test_length(nl, faults, cop, w, 0.999, threads));
    }
    for (std::size_t t = 1; t < reports.size(); ++t) {
        EXPECT_EQ(reports[t].feasible, reports[0].feasible);
        EXPECT_EQ(reports[t].test_length, reports[0].test_length);
        EXPECT_EQ(reports[t].relevant_faults, reports[0].relevant_faults);
        EXPECT_EQ(reports[t].zero_prob_faults, reports[0].zero_prob_faults);
        EXPECT_EQ(reports[t].hardest_probability,
                  reports[0].hardest_probability);
    }
}

}  // namespace
}  // namespace wrpt
