// Tests for the exec layer (thread_pool, the deterministic parallel
// sort, batch_session) and for the batched probe path's core guarantee:
// parallel PREPARE is bit-identical to the sequential path for every
// thread count.

#include "exec/batch_session.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

#include "exec/engine_pool.h"
#include "exec/parallel_sort.h"
#include "exec/thread_pool.h"
#include "gen/comparator.h"
#include "gen/ecc.h"
#include "gen/random_circuit.h"
#include "gen/sharded.h"
#include "io/bench_io.h"
#include "opt/normalize.h"
#include "opt/optimizer.h"
#include "prob/detect.h"
#include "sim/fault_sim.h"
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

// --- thread_pool ---------------------------------------------------------

TEST(thread_pool, parallel_for_covers_every_index_exactly_once) {
    thread_pool pool(4);
    constexpr std::size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(thread_pool, parallel_for_propagates_exceptions) {
    thread_pool pool(3);
    EXPECT_THROW(pool.parallel_for(64,
                                   [](std::size_t i) {
                                       if (i == 17)
                                           throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
    // The pool survives a failed batch.
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(100, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 4950u);
}

TEST(thread_pool, nested_parallel_for_does_not_deadlock) {
    // An inner parallel_for issued from inside a pool task must complete
    // even when every worker is busy with outer tasks (the inner caller
    // drains its own items). This is the batch_session-over-batched-
    // probes shape.
    thread_pool pool(2);
    std::atomic<std::size_t> total{0};
    pool.parallel_for(8, [&](std::size_t) {
        pool.parallel_for(16, [&](std::size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(total.load(), 8u * 16u);
}

TEST(thread_pool, submit_and_wait_idle) {
    thread_pool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 32; ++i) pool.submit([&] { ++ran; });
    pool.wait_idle();
    EXPECT_EQ(ran.load(), 32);
}

// --- deterministic parallel sort -------------------------------------------

TEST(SimdSort, MatchesStableSortWithDuplicates) {
    rng r(0x50f7);
    std::vector<double> keys(40000);
    for (auto& k : keys) k = static_cast<double>(r.next_below(97));

    std::vector<std::size_t> want(keys.size());
    for (std::size_t i = 0; i < want.size(); ++i) want[i] = i;
    std::stable_sort(want.begin(), want.end(),
                     [&](std::size_t a, std::size_t b) {
                         return keys[a] < keys[b];
                     });

    for (unsigned threads : {1u, 2u, 8u}) {
        std::vector<std::size_t> got(keys.size());
        for (std::size_t i = 0; i < got.size(); ++i) got[i] = i;
        parallel_stable_sort_indices(
            got,
            [&](std::size_t a, std::size_t b) { return keys[a] < keys[b]; },
            threads > 1 ? &shared_thread_pool() : nullptr, threads,
            /*shard=*/512);
        EXPECT_EQ(want, got) << threads;
    }
}

// sort_faults' pooled overload: identical order for every thread count,
// with duplicate probabilities and excluded p <= 0 entries in the mix.
TEST(SimdSort, SortFaultsIdenticalAcrossThreads) {
    rng r(0xdead);
    std::vector<double> probs(50000);
    for (auto& p : probs) {
        const double d = r.next_double();
        p = d < 0.03 ? 0.0 : static_cast<double>(r.next_below(211)) / 211.0;
    }

    const std::vector<std::size_t> want = sort_faults(probs);
    for (unsigned threads : {1u, 2u, 8u}) {
        normalize_exec ex;
        ex.pool = &shared_thread_pool();
        ex.threads = threads;
        EXPECT_EQ(want, sort_faults(probs, ex)) << threads;
    }
}

// --- multi-input probes / parallel PREPARE -------------------------------

TEST(batched_probes, estimate_probes_matches_single_probe_queries) {
    const netlist nl = make_test_circuit(41);
    const auto faults = generate_full_faults(nl);
    cop_detect_estimator cop;
    cop.set_engine_cone_limit(1.0);  // force the engine path
    const weight_vector base = uniform_weights(nl);

    std::vector<probe> probes;
    rng r(7);
    for (int k = 0; k < 12; ++k) {
        probe p;
        const std::size_t moves = 1 + r.next_below(nl.input_count());
        std::set<std::size_t> used;
        for (std::size_t m = 0; m < moves; ++m) {
            const std::size_t i = r.next_below(nl.input_count());
            if (!used.insert(i).second) continue;
            p.push_back({i, 0.05 + 0.9 * r.next_double()});
        }
        probes.push_back(std::move(p));
    }

    const auto batched = cop.estimate_probes(nl, faults, base, probes);

    // Reference: a fresh full-recompute estimator per probe.
    for (std::size_t k = 0; k < probes.size(); ++k) {
        cop_detect_estimator full;
        full.set_incremental(false);
        const auto expected =
            full.estimate(nl, faults, apply_probe(base, probes[k]));
        ASSERT_EQ(batched[k].size(), expected.size());
        for (std::size_t j = 0; j < expected.size(); ++j)
            ASSERT_DOUBLE_EQ(batched[k][j], expected[j])
                << "probe " << k << " fault " << j;
    }
}

TEST(batched_probes, thread_counts_are_bit_identical) {
    const netlist nl = make_sharded_comparators(8, 4);
    const auto faults = generate_full_faults(nl);
    const weight_vector base = uniform_weights(nl);

    std::vector<probe> probes;
    for (std::size_t i = 0; i < nl.input_count(); ++i) {
        probes.push_back({{i, 0.05}});
        probes.push_back({{i, 0.95}});
    }

    std::vector<std::vector<std::vector<double>>> results;
    for (unsigned threads : {1u, 2u, 8u}) {
        cop_detect_estimator cop;
        cop.set_engine_cone_limit(1.0);
        cop.set_threads(threads);
        results.push_back(cop.estimate_probes(nl, faults, base, probes));
    }
    for (std::size_t t = 1; t < results.size(); ++t) {
        ASSERT_EQ(results[t].size(), results[0].size());
        for (std::size_t k = 0; k < results[0].size(); ++k)
            for (std::size_t j = 0; j < results[0][k].size(); ++j)
                ASSERT_EQ(results[t][k][j], results[0][k][j])
                    << "thread variant " << t << " probe " << k;
    }
}

TEST(batched_probes, optimize_weights_bit_identical_across_thread_counts) {
    const netlist nl = make_sharded_comparators(6, 4);
    const auto faults = generate_full_faults(nl);

    std::vector<optimize_result> runs;
    for (unsigned threads : {1u, 2u, 8u}) {
        cop_detect_estimator cop;
        cop.set_engine_cone_limit(1.0);
        cop.set_threads(threads);
        runs.push_back(
            optimize_weights(nl, faults, cop, uniform_weights(nl)));
    }
    for (std::size_t t = 1; t < runs.size(); ++t) {
        EXPECT_EQ(runs[t].weights, runs[0].weights) << "threads variant " << t;
        EXPECT_EQ(runs[t].final_test_length, runs[0].final_test_length);
        EXPECT_EQ(runs[t].analysis_calls, runs[0].analysis_calls);
    }
}

TEST(batched_probes, mc_probe_streams_are_position_derived) {
    const netlist nl = make_test_circuit(9, 8, 60);
    const auto faults = generate_full_faults(nl);
    mc_detect_estimator mc(512, 0xabc);
    const weight_vector base = uniform_weights(nl);

    const probe a{{0, 0.25}};
    const probe b{{1, 0.75}};
    const std::vector<probe> ab{a, b};
    const std::vector<probe> ba{b, a};
    const auto r_ab = mc.estimate_probes(nl, faults, base, ab);
    const auto r_ba = mc.estimate_probes(nl, faults, base, ba);
    // Probe index k keeps its private stream: running probe `a` first or
    // the batch in reverse order must not change what stream position k
    // sees — so a's answers from slot 0 equal b's answers from slot 0
    // only if the streams were shared. With per-(seed, index) streams,
    // slot 0 of the reversed batch equals what b would get at slot 0.
    const std::vector<probe> only_b{b};
    const auto r_b0 = mc.estimate_probes(nl, faults, base, only_b);
    for (std::size_t j = 0; j < faults.size(); ++j) {
        ASSERT_EQ(r_ba[0][j], r_b0[0][j]) << j;  // position determines stream
    }
    // And the same probe at the same position is reproducible.
    const auto r_ab2 = mc.estimate_probes(nl, faults, base, ab);
    for (std::size_t k = 0; k < ab.size(); ++k)
        for (std::size_t j = 0; j < faults.size(); ++j)
            ASSERT_EQ(r_ab[k][j], r_ab2[k][j]);
}

// --- engine counters: saddle probes ride the engine ----------------------

TEST(engine_counters, saddle_escape_does_not_rebuild_the_engine) {
    // The cascaded comparator stalls at the uniform starting vector, so
    // OPTIMIZE runs the saddle escape: five wholesale perturbations. Each
    // must execute as one multi-input incremental transaction on the
    // existing engine — never as a fresh full analysis.
    const netlist nl = make_cascaded_comparator(3, "cmp12sad");
    const auto faults = generate_full_faults(nl);
    cop_detect_estimator cop;
    cop.set_engine_cone_limit(1.0);  // force the engine everywhere

    const auto res = optimize_weights(nl, faults, cop, uniform_weights(nl));
    ASSERT_TRUE(res.feasible);
    const auto& st = cop.stats();
    // Sequential probe path: exactly one full analysis ever, everything
    // else incremental.
    EXPECT_EQ(st.engine_builds, 1u);
    EXPECT_EQ(st.full_estimates, 0u);
    // The saddle escape contributed multi-input transactions (5 probes
    // plus the wholesale base move to the winning candidate).
    EXPECT_GE(st.batched_moves, 5u);
    EXPECT_GT(st.engine_probes, 0u);
}

// --- batch_session -------------------------------------------------------

std::vector<netlist> session_suite() {
    std::vector<netlist> circuits;
    circuits.push_back(make_cascaded_comparator(2, "cmp8s"));
    circuits.push_back(make_sharded_comparators(6, 3));
    circuits.push_back(make_c499_like());
    circuits.push_back(make_test_circuit(17, 12, 150));
    return circuits;
}

TEST(batch_session, matches_per_circuit_sequential_runs) {
    batch_session::options so;
    so.threads = 4;
    batch_session session(so);
    std::vector<netlist> reference = session_suite();
    for (auto& nl : session_suite()) session.add_circuit(std::move(nl));
    ASSERT_EQ(session.circuit_count(), reference.size());

    std::vector<svc::job_request> jobs;
    for (std::size_t c = 0; c < session.circuit_count(); ++c) {
        svc::test_length_request tl;
        tl.circuit = c;
        jobs.push_back(tl);

        svc::optimize_request opt;
        opt.circuit = c;
        jobs.push_back(opt);

        svc::fault_sim_request fs;
        fs.circuit = c;
        fs.patterns = 1024;
        fs.seed = 0x5eed + c;
        jobs.push_back(fs);
    }
    const auto results = session.run(jobs);
    ASSERT_EQ(results.size(), jobs.size());

    for (std::size_t c = 0; c < reference.size(); ++c) {
        const netlist& nl = reference[c];
        const auto faults = generate_full_faults(nl);
        // Sequential reference, fresh estimator per circuit.
        cop_detect_estimator cop;
        const auto tl =
            required_test_length(nl, faults, cop, uniform_weights(nl));
        const auto& rt = results[3 * c];
        EXPECT_EQ(rt.revision, session.circuit(c).revision());
        EXPECT_EQ(rt.length.feasible, tl.feasible);
        EXPECT_EQ(rt.length.test_length, tl.test_length);

        cop_detect_estimator cop2;
        const auto opt =
            optimize_weights(nl, faults, cop2, uniform_weights(nl));
        const auto& ro = results[3 * c + 1];
        EXPECT_EQ(ro.optimized.weights, opt.weights);
        EXPECT_EQ(ro.optimized.final_test_length, opt.final_test_length);

        fault_sim_options fo;
        fo.max_patterns = 1024;
        fo.threads = 1;
        const auto sim = run_weighted_fault_simulation(
            nl, faults, uniform_weights(nl), 0x5eed + c, fo);
        const auto& rs = results[3 * c + 2];
        EXPECT_EQ(rs.detected, sim.detected_count);
        EXPECT_EQ(rs.patterns_applied, sim.patterns_applied);
        EXPECT_EQ(rs.fault_count, faults.size());
    }
}

TEST(batch_session, matrix_runs_every_pair_in_row_major_order) {
    batch_session session;
    session.add_circuit(make_cascaded_comparator(1, "cmp4m"));
    session.add_circuit(make_test_circuit(23, 6, 50));

    // Weight vectors must match each circuit; expand_matrix passes them
    // as-is, so with different input counts per circuit use the empty
    // vector (= uniform) twice.
    svc::matrix_request m;
    m.kind = batch_session::job_kind::test_length;
    m.weight_sets.push_back({});
    m.weight_sets.push_back({});

    const auto results = session.run(session.expand_matrix(m));
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[0].circuit, 0u);
    EXPECT_EQ(results[1].circuit, 0u);
    EXPECT_EQ(results[2].circuit, 1u);
    EXPECT_EQ(results[3].circuit, 1u);
    // Same circuit + same weights -> same answer, whatever the job slot.
    EXPECT_EQ(results[0].length.test_length, results[1].length.test_length);
    EXPECT_EQ(results[2].length.test_length, results[3].length.test_length);
    for (const auto& r : results) EXPECT_TRUE(r.length.feasible);
}

TEST(batch_session, keeps_engine_pools_warm_across_run_calls) {
    // The cross-request reuse contract: engines built by one run() call
    // serve the next run() after an incremental re-sync instead of being
    // rebuilt. Asserted through the per-circuit pool counters.
    batch_session::options so;
    so.threads = 1;
    batch_session session(so);
    const std::size_t h = session.add_circuit(make_sharded_comparators(6, 3));
    EXPECT_EQ(session.pool(h).size(), 0u);  // engines build lazily

    svc::optimize_request j;
    j.circuit = h;

    const auto first = session.run({j});
    const engine_pool::counters after_first = session.pool(h).stats();
    EXPECT_GE(after_first.misses, 1u);  // the first run built the engines

    const auto second = session.run({j});
    const engine_pool::counters after_second = session.pool(h).stats();
    // Warm reuse: the second run checked out without building anything.
    EXPECT_GT(after_second.hits, after_first.hits);
    EXPECT_EQ(after_second.misses, after_first.misses);
    // And reuse does not change answers.
    EXPECT_EQ(second[0].optimized.weights, first[0].optimized.weights);
    EXPECT_EQ(second[0].optimized.final_test_length,
              first[0].optimized.final_test_length);
    EXPECT_EQ(second[0].length.test_length, first[0].length.test_length);
}

TEST(batch_session, add_circuit_file_round_trip) {
    const netlist nl = make_cascaded_comparator(1, "cmp4f");
    const auto dir = std::filesystem::temp_directory_path() / "wrpt_batch";
    std::filesystem::create_directories(dir);
    const auto path = dir / "cmp4f.bench";
    write_bench_file(path.string(), nl);

    batch_session session;
    const std::size_t h = session.add_circuit_file(path.string());
    EXPECT_EQ(session.circuit(h).input_count(), nl.input_count());
    // The .bench round trip may insert output buffers, so compare the
    // fault universe against the re-read netlist, not the original.
    EXPECT_EQ(session.faults(h).size(),
              generate_full_faults(read_bench_file(path.string())).size());

    svc::fault_sim_request j;
    j.circuit = h;
    j.patterns = 512;
    const auto results = session.run({j});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GT(results[0].coverage_percent, 90.0);
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace wrpt
