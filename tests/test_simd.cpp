// Kernel-equivalence suite for the vectorized compute paths (core/simd.h
// and friends): every SIMD kernel must be bit-identical to its scalar
// reference, on every circuit of the gen/ suite, for every dispatch mode
// (compiled-best ISA and the forced scalar fallback), for every thread
// count, and on odd-sized tails that don't fill a vector register.
//
// Under -DWRPT_FORCE_SCALAR the vector variants are compiled out and
// every check here degenerates to scalar-vs-scalar — still asserted, so
// the CI fallback leg runs the same suite.

#include "core/simd.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/circuit_view.h"
#include "exec/parallel_sort.h"
#include "exec/thread_pool.h"
#include "fault/fault.h"
#include "gen/random_circuit.h"
#include "gen/suite.h"
#include "io/weights_io.h"
#include "opt/normalize.h"
#include "prob/cop_kernels.h"
#include "prob/cop_rules.h"
#include "prob/signal_prob.h"
#include "sim/fault_sim.h"
#include "sim/logic_sim.h"
#include "sim/patterns.h"
#include "svc/request.h"
#include "svc/service.h"
#include "util/rng.h"

namespace wrpt {
namespace {

// Restore the dispatch switch even when an assertion bails out of a test.
struct scalar_guard {
    explicit scalar_guard(bool on) : prev_(simd::scalar_forced()) {
        simd::set_force_scalar(on);
    }
    ~scalar_guard() { simd::set_force_scalar(prev_); }
    scalar_guard(const scalar_guard&) = delete;
    scalar_guard& operator=(const scalar_guard&) = delete;

private:
    bool prev_;
};

// EXPECT_EQ on doubles compares values (0.0 == -0.0, NaN != NaN); the
// kernels promise bit-identity, so compare the representation.
void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
                  std::bit_cast<std::uint64_t>(b[i]))
            << "node " << i << ": " << a[i] << " vs " << b[i];
    }
}

weight_vector varied_weights(std::size_t inputs, std::uint64_t seed) {
    rng r(seed);
    weight_vector w(inputs);
    for (auto& x : w) x = r.next_double();
    return w;
}

// --- COP forward sweep -------------------------------------------------------

TEST(SimdDispatch, ReportsConsistentIsaAndLanes) {
    const simd::isa compiled = simd::compiled_isa();
    const simd::isa active = simd::active_isa();
    // Active is the compiled ISA or a runtime step up/down from it; the
    // lane width is 1 exactly for scalar.
    EXPECT_GE(simd::lane_width(compiled), 1u);
    EXPECT_GE(simd::lane_width(active), 1u);
    EXPECT_EQ(simd::lane_width(simd::isa::scalar), 1u);
    EXPECT_STRNE(simd::isa_name(active), "");

    scalar_guard forced(true);
    EXPECT_EQ(simd::active_isa(), simd::isa::scalar);
}

// The vectorized sweep and the scalar forward sweep agree bit-for-bit on
// every suite circuit, at uniform and at varied weights.
TEST(SimdCopSweep, BitIdenticalOnSuite) {
    for (const suite_entry& e : benchmark_suite()) {
        const netlist nl = e.build();

        circuit_view::compile_options lanes;
        lanes.lane_groups = true;
        const circuit_view grouped = circuit_view::compile(nl, lanes);
        const circuit_view plain = circuit_view::compile(nl);  // no lane groups

        for (std::uint64_t seed : {0u, 17u}) {
            const weight_vector w =
                seed == 0 ? uniform_weights(nl)
                          : varied_weights(nl.input_count(), seed);
            const std::vector<double> scalar_p =
                cop_signal_probabilities(plain, w);
            const std::vector<double> vec_p =
                cop_signal_probabilities(grouped, w);
            SCOPED_TRACE(e.name + (seed ? " varied" : " uniform"));
            expect_bits_equal(scalar_p, vec_p);
        }
    }
}

// Forcing the scalar fallback makes the vectorized entry point decline
// (leaving the output untouched), and the public API still answers the
// same probabilities through the reference sweep.
TEST(SimdCopSweep, ForcedFallbackDeclinesAndMatches) {
    const netlist nl = build_suite_circuit("c432");
    circuit_view::compile_options lanes;
    lanes.lane_groups = true;
    const circuit_view grouped = circuit_view::compile(nl, lanes);
    const weight_vector w = varied_weights(nl.input_count(), 99);

    const std::vector<double> reference = cop_signal_probabilities(grouped, w);

    scalar_guard forced(true);
    std::vector<double> p(grouped.node_count(), -1.0);
    EXPECT_FALSE(cop::forward_sweep_vectorized(grouped, w, p));
    for (double x : p) EXPECT_EQ(x, -1.0);  // untouched
    expect_bits_equal(reference, cop_signal_probabilities(grouped, w));
}

// Random circuits of many shapes: bucket sizes here are arbitrary, so the
// scalar tail (count % lanes) of every lane group gets exercised.
TEST(SimdCopSweep, OddTailsOnRandomCircuits) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        random_circuit_spec spec;
        spec.inputs = 5 + seed;
        spec.gates = 11 * seed + 3;  // deliberately never a lane multiple
        spec.seed = seed;
        const netlist nl = make_random_circuit(spec);

        circuit_view::compile_options lanes;
        lanes.lane_groups = true;
        const circuit_view grouped = circuit_view::compile(nl, lanes);
        const circuit_view plain = circuit_view::compile(nl);
        const weight_vector w = varied_weights(nl.input_count(), seed);

        SCOPED_TRACE(seed);
        expect_bits_equal(cop_signal_probabilities(plain, w),
                          cop_signal_probabilities(grouped, w));
    }
}

// --- batched exp(-p N) -------------------------------------------------------

TEST(SimdExpNegScale, BitIdenticalIncludingOddLengths) {
    rng r(0xabcdef);
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                          std::size_t{3}, std::size_t{5}, std::size_t{7},
                          std::size_t{63}, std::size_t{64}, std::size_t{65},
                          std::size_t{1000}}) {
        std::vector<double> x(n), got(n, -1.0), want(n, -1.0);
        for (auto& v : x) v = r.next_double();
        const double m = 52384.0 + static_cast<double>(n);

        for (std::size_t i = 0; i < n; ++i) want[i] = std::exp(-x[i] * m);
        simd::exp_neg_scale(x.data(), m, got.data(), n);
        SCOPED_TRACE(n);
        expect_bits_equal(want, got);

        scalar_guard forced(true);
        std::fill(got.begin(), got.end(), -1.0);
        simd::exp_neg_scale(x.data(), m, got.data(), n);
        expect_bits_equal(want, got);
    }
}

// NORMALIZE rides on exp_neg_scale; the sharded/pooled run must stay
// bit-identical to the sequential one (same fixed-order reduction).
TEST(SimdExpNegScale, NormalizeMatchesAcrossThreads) {
    rng r(7);
    std::vector<double> probs(5000);
    for (auto& p : probs) p = 1e-6 + 0.2 * r.next_double();

    const normalize_result seq = normalize_detection_probs(probs, 0.999);
    for (unsigned threads : {2u, 8u}) {
        normalize_exec ex;
        ex.pool = &shared_thread_pool();
        ex.threads = threads;
        ex.shard = 256;
        const normalize_result par =
            normalize_detection_probs(probs, 0.999, ex);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(seq.test_length),
                  std::bit_cast<std::uint64_t>(par.test_length))
            << threads;
        EXPECT_EQ(seq.relevant_faults, par.relevant_faults);
        EXPECT_EQ(seq.feasible, par.feasible);
    }
}

// --- parallel PPSFP --------------------------------------------------------

// The full fault-simulation result — first_detected per fault AND
// patterns_applied — is invariant across thread counts, including budgets
// that are not multiples of 64 times the thread count.
TEST(SimdFaultSim, ParallelBitIdentical) {
    for (const char* name : {"S1", "c432"}) {
        const netlist nl = build_suite_circuit(name);
        const std::vector<fault> faults = generate_full_faults(nl);
        const weight_vector w = uniform_weights(nl);

        for (std::uint64_t budget : {320u, 832u}) {
            fault_sim_options ref;
            ref.max_patterns = budget;
            ref.threads = 1;
            const fault_sim_result want =
                run_weighted_fault_simulation(nl, faults, w, 0xfeed, ref);

            for (unsigned threads : {1u, 2u, 8u}) {
                fault_sim_options o = ref;
                o.threads = threads;
                const fault_sim_result got =
                    run_weighted_fault_simulation(nl, faults, w, 0xfeed, o);
                SCOPED_TRACE(std::string(name) + " t" +
                             std::to_string(threads));
                EXPECT_EQ(want.patterns_applied, got.patterns_applied);
                EXPECT_EQ(want.detected_count, got.detected_count);
                ASSERT_EQ(want.first_detected.size(),
                          got.first_detected.size());
                for (std::size_t i = 0; i < want.first_detected.size(); ++i)
                    ASSERT_EQ(want.first_detected[i], got.first_detected[i])
                        << "fault " << i;
            }
        }
    }
}

// --- deterministic parallel sort ---------------------------------------------

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

// --- svc stats surface -------------------------------------------------------

TEST(SimdStats, StatsResponseCarriesDispatch) {
    svc::service s;
    svc::request q;
    q.id = 1;
    q.payload = svc::stats_request{};
    const svc::response resp = s.handle(q);
    ASSERT_TRUE(resp.ok);
    const auto& st = std::get<svc::stats_response>(resp.payload);
    EXPECT_EQ(st.simd_isa, simd::isa_name(simd::active_isa()));
    EXPECT_EQ(st.simd_lanes, simd::lane_width(simd::active_isa()));
    EXPECT_GE(st.simd_lanes, 1u);
}

}  // namespace
}  // namespace wrpt
