// Performance of the two kernels everything rests on: the PPSFP fault
// simulator (patterns/second with fault dropping) and the analytic
// testability analysis (the paper's efficiency argument is that one
// coordinate step costs less than two full analyses).

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "exec/thread_pool.h"
#include "fault/fault.h"
#include "opt/normalize.h"
#include "gen/sharded.h"
#include "gen/suite.h"
#include "io/weights_io.h"
#include "opt/optimizer.h"
#include "prob/detect.h"
#include "sim/fault_sim.h"
#include "svc/server.h"
#include "svc/service.h"
#include "svc/socket.h"

namespace {

using namespace wrpt;

void bm_fault_sim(benchmark::State& state, const std::string& name,
                  std::uint64_t patterns) {
    const netlist nl = build_suite_circuit(name);
    const auto faults = generate_full_faults(nl);
    for (auto _ : state) {
        fault_sim_options fo;
        fo.max_patterns = patterns;
        auto res = run_weighted_fault_simulation(nl, faults,
                                                 uniform_weights(nl), 7, fo);
        benchmark::DoNotOptimize(res.detected_count);
    }
    state.counters["patterns/s"] = benchmark::Counter(
        static_cast<double>(patterns) * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
    state.counters["faults"] = static_cast<double>(faults.size());
}

void bm_analysis(benchmark::State& state, const std::string& name) {
    const netlist nl = build_suite_circuit(name);
    const auto faults = generate_full_faults(nl);
    cop_detect_estimator analysis;
    const weight_vector w = uniform_weights(nl);
    for (auto _ : state) {
        auto probs = analysis.estimate(nl, faults, w);
        benchmark::DoNotOptimize(probs.data());
    }
    state.counters["faults/s"] = benchmark::Counter(
        static_cast<double>(faults.size()) *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

/// Sharded ANALYSIS (the optimizer's per-sweep full fault read) on
/// `threads` pool engines — the speedup curve for BENCH_analysis.json.
/// Same probabilities for every thread count; only the wall clock moves.
void bm_analysis_sharded(benchmark::State& state, const std::string& name,
                         unsigned threads) {
    const netlist nl = name == "sharded" ? make_sharded_comparators(224, 8)
                                         : build_suite_circuit(name);
    const auto faults = generate_full_faults(nl);
    cop_detect_estimator analysis;
    analysis.set_engine_cone_limit(1.0);  // engine path (pool shards)
    const weight_vector w = uniform_weights(nl);
    for (auto _ : state) {
        auto probs = analysis.estimate_faults(
            nl, {faults.data(), faults.size()}, w, threads);
        benchmark::DoNotOptimize(probs.data());
    }
    state.counters["threads"] = static_cast<double>(threads);
    state.counters["faults"] = static_cast<double>(faults.size());
    state.counters["faults/s"] = benchmark::Counter(
        static_cast<double>(faults.size()) *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

netlist build_sweep_circuit(const std::string& name) {
    // The sharded array is the largest circuit gen/ builds: wide, with
    // input fanout cones confined to a slice pair plus the compactor —
    // the shape where cone-restricted PREPARE beats full recomputation
    // asymptotically. The deep suite circuits (S2: near-global cones) are
    // benchmarked alongside as the unfavorable regime.
    if (name == "sharded") return make_sharded_comparators(224, 8);
    return build_suite_circuit(name);
}

/// One OPTIMIZE sweep (PREPARE + MINIMIZE over every input) with the COP
/// estimator. `incremental` selects the cone-restricted incremental
/// engine; the full-recompute baseline re-runs both testability analyses
/// per input — the paper's stated cost of one coordinate step.
void bm_optimize_sweep(benchmark::State& state, const std::string& name,
                       bool incremental) {
    const netlist nl = build_sweep_circuit(name);
    const auto faults = generate_full_faults(nl);
    for (auto _ : state) {
        cop_detect_estimator analysis;
        analysis.set_incremental(incremental);
        // Force the engine regardless of cone fraction so the benchmark
        // exposes both regimes (sharded: local cones, big win; S2:
        // near-global cones, the engine loses to the warm full sweep —
        // which is why the production default is adaptive).
        if (incremental) analysis.set_engine_cone_limit(1.0);
        optimize_options opt;
        opt.max_sweeps = 1;
        opt.saddle_escape = false;
        auto res = optimize_weights(nl, faults, analysis, uniform_weights(nl),
                                    opt);
        benchmark::DoNotOptimize(res.final_test_length);
    }
    state.counters["inputs"] = static_cast<double>(nl.input_count());
    state.counters["gates"] =
        static_cast<double>(nl.node_count() - nl.input_count());
}

/// One OPTIMIZE sweep with the batched PREPARE path on `threads`
/// per-thread engines — the speedup curve the exec refactor exists for.
/// Same optimized weights for every thread count; only the wall clock
/// moves.
void bm_optimize_sweep_threaded(benchmark::State& state,
                                const std::string& name, unsigned threads) {
    const netlist nl = build_sweep_circuit(name);
    const auto faults = generate_full_faults(nl);
    for (auto _ : state) {
        cop_detect_estimator analysis;
        analysis.set_engine_cone_limit(1.0);
        analysis.set_threads(threads);
        optimize_options opt;
        opt.max_sweeps = 1;
        opt.saddle_escape = false;
        auto res = optimize_weights(nl, faults, analysis, uniform_weights(nl),
                                    opt);
        benchmark::DoNotOptimize(res.final_test_length);
    }
    state.counters["threads"] = static_cast<double>(threads);
    state.counters["inputs"] = static_cast<double>(nl.input_count());
    state.counters["gates"] =
        static_cast<double>(nl.node_count() - nl.input_count());
}

/// Repeat-optimize latency through the svc::service facade — the serving
/// path of BENCH_serve.json. `cached` true measures the steady state of
/// a daemon answering the same query again (result-cache hit: key lookup
/// + response materialization, no pipeline work); false forces a
/// recompute each iteration by evicting the entry first. The cache-hit
/// row should be orders of magnitude below the uncached row.
void bm_serve_optimize(benchmark::State& state, const std::string& name,
                       bool cached) {
    svc::service::options so;
    so.threads = 1;
    svc::service service(so);
    {
        svc::request load;
        svc::load_circuit_request lp;
        lp.suite = name;
        load.payload = std::move(lp);
        if (!service.handle(load).ok) {
            state.SkipWithError("load failed");
            return;
        }
    }
    svc::request q;
    svc::optimize_request op;
    op.options.max_sweeps = 3;
    q.payload = op;
    service.handle(q);  // populate the cache once
    svc::request evict;
    // Drop only the result-cache entry, keeping every warm pooled engine:
    // the uncached row measures the daemon's steady-state recompute, not
    // a cold engine rebuild.
    evict.payload = svc::evict_request{true, 0, SIZE_MAX};
    std::vector<double> latencies_us;
    for (auto _ : state) {
        if (!cached) {
            state.PauseTiming();
            service.handle(evict);
            state.ResumeTiming();
        }
        const auto t0 = std::chrono::steady_clock::now();
        svc::response r = service.handle(q);
        const auto t1 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(r.ok);
        latencies_us.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    const svc::service::cache_counters cc = service.cache_stats();
    state.counters["cached"] = cached ? 1.0 : 0.0;
    state.counters["cache_hits"] = static_cast<double>(cc.hits);
    state.counters["cache_misses"] = static_cast<double>(cc.misses);
    state.counters["p50_us"] = bench::percentile(latencies_us, 0.50);
    state.counters["p99_us"] = bench::percentile(latencies_us, 0.99);
}

// Full-transport repeat-optimize latency: N concurrent clients, each one
// connection to a unix-socket daemon, each sending one optimize request
// per iteration — the remaining BENCH_serve.json rows. Relative to
// bm_serve_optimize the cached rows price the wire (connect + codec +
// one round trip per client); the uncached 8-client row is the
// contended steady state, where every client recomputes the evicted
// entry concurrently against one shared service.
void bm_serve_socket(benchmark::State& state, const std::string& name,
                     std::size_t clients, bool cached) {
    svc::service service;
    {
        svc::request load;
        svc::load_circuit_request lp;
        lp.suite = name;
        load.payload = std::move(lp);
        if (!service.handle(load).ok) {
            state.SkipWithError("load failed");
            return;
        }
    }
    svc::request q;
    svc::optimize_request op;
    op.options.max_sweeps = 3;
    q.payload = op;
    service.handle(q);  // populate the cache once
    svc::request evict;
    // As in bm_serve_optimize: drop the result-cache entry only, keep
    // warm pooled engines.
    evict.payload = svc::evict_request{true, 0, SIZE_MAX};

    const svc::endpoint ep = svc::endpoint::unix_at(
        (std::filesystem::temp_directory_path() /
         ("wrpt_bm_" + std::to_string(::getpid()) + ".sock"))
            .string());
    svc::server server(service, ep);

    for (auto _ : state) {
        if (!cached) {
            state.PauseTiming();
            service.handle(evict);
            state.ResumeTiming();
        }
        std::vector<std::thread> threads;
        threads.reserve(clients);
        for (std::size_t c = 0; c < clients; ++c) {
            threads.emplace_back([&] {
                svc::client client(server.where());
                const svc::response r = client.roundtrip(q);
                benchmark::DoNotOptimize(r.ok);
            });
        }
        for (std::thread& t : threads) t.join();
    }
    server.stop();
    server.wait();
    const svc::service::cache_counters cc = service.cache_stats();
    state.counters["clients"] = static_cast<double>(clients);
    state.counters["cached"] = cached ? 1.0 : 0.0;
    state.counters["cache_hits"] = static_cast<double>(cc.hits);
    state.counters["cache_misses"] = static_cast<double>(cc.misses);
}

// --- parallel SORT rows (BENCH_kernels.json) --------------------------------
//
// Each row measures the kernel in its production configuration and
// carries a speedup counter against its one-thread reference. The
// reference is timed inline (fixed reps, steady clock), so the ratio
// lands in the JSON even where the hardware caps the win; the order is
// identical for every thread count (test_exec asserts it), only the wall
// clock may move.

template <class F>
double seconds_for(F&& fn, int reps) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/// Deterministic parallel fault SORT on `threads` pool workers vs the
/// single-thread run — identical order either way (index tie-break).
void bm_sort_faults_parallel(benchmark::State& state, std::size_t faults,
                             unsigned threads) {
    std::vector<double> probs(faults);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;  // deterministic fill
    for (std::size_t i = 0; i < faults; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // ~3% undetectable (p == 0) to exercise the exclusion scan.
        probs[i] = (x % 32 == 0) ? 0.0
                                 : static_cast<double>(x % 1000000) * 1e-9;
    }
    normalize_exec exec;
    exec.pool = &shared_thread_pool();
    exec.threads = threads;
    for (auto _ : state) {
        auto order = sort_faults(probs, exec);
        benchmark::DoNotOptimize(order.data());
    }
    const int reps = 5;
    normalize_exec seq;
    const double t_one =
        seconds_for([&] { sort_faults(probs, seq); }, reps);
    const double t_par =
        seconds_for([&] { sort_faults(probs, exec); }, reps);
    state.counters["threads"] = static_cast<double>(threads);
    state.counters["faults"] = static_cast<double>(faults);
    state.counters["speedup_vs_1t"] = t_par > 0.0 ? t_one / t_par : 0.0;
}

}  // namespace

BENCHMARK_CAPTURE(bm_optimize_sweep, sharded_incremental,
                  std::string("sharded"), true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_optimize_sweep, sharded_full, std::string("sharded"),
                  false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_optimize_sweep, S2_incremental, std::string("S2"), true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_optimize_sweep, S2_full, std::string("S2"), false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_optimize_sweep, c7552_incremental, std::string("c7552"),
                  true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_optimize_sweep, c7552_full, std::string("c7552"), false)
    ->Unit(benchmark::kMillisecond);

// The speedup curve for BENCH JSON: one batched sweep on the sharded
// array at 1/2/4/8 threads (the acceptance shape: >= 3x at 8 threads on
// hardware with >= 8 cores).
BENCHMARK_CAPTURE(bm_optimize_sweep_threaded, sharded_t1,
                  std::string("sharded"), 1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(bm_optimize_sweep_threaded, sharded_t2,
                  std::string("sharded"), 2)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(bm_optimize_sweep_threaded, sharded_t4,
                  std::string("sharded"), 4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(bm_optimize_sweep_threaded, sharded_t8,
                  std::string("sharded"), 8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_CAPTURE(bm_fault_sim, S1_4k, std::string("S1"), 4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_fault_sim, c6288_1k, std::string("c6288"), 1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_fault_sim, c7552_1k, std::string("c7552"), 1024)
    ->Unit(benchmark::kMillisecond);

// The sharded-ANALYSIS speedup curve for BENCH JSON: the full fault-list
// read of the big sharded array at 1/2/4/8 threads.
BENCHMARK_CAPTURE(bm_analysis_sharded, sharded_t1, std::string("sharded"), 1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(bm_analysis_sharded, sharded_t2, std::string("sharded"), 2)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(bm_analysis_sharded, sharded_t4, std::string("sharded"), 4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(bm_analysis_sharded, sharded_t8, std::string("sharded"), 8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Cached vs uncached repeat-optimize through the service facade — the
// BENCH_serve.json rows. The cached row is the daemon's steady state on
// repeated identical queries and should be ~free.
BENCHMARK_CAPTURE(bm_serve_optimize, S1_cached, std::string("S1"), true)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(bm_serve_optimize, S1_uncached, std::string("S1"), false)
    ->Unit(benchmark::kMicrosecond);

// The socket-transport rows: 1 vs 8 concurrent clients, cached vs
// uncached, against one unix-socket daemon. Real time — the clients are
// threads, the cost is a round trip, not CPU in this process's loop.
BENCHMARK_CAPTURE(bm_serve_socket, S1_c1_cached, std::string("S1"), 1, true)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK_CAPTURE(bm_serve_socket, S1_c1_uncached, std::string("S1"), 1,
                  false)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK_CAPTURE(bm_serve_socket, S1_c8_cached, std::string("S1"), 8, true)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK_CAPTURE(bm_serve_socket, S1_c8_uncached, std::string("S1"), 8,
                  false)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();

// The parallel SORT rows for BENCH_kernels.json, at 1/2/8 threads.
BENCHMARK_CAPTURE(bm_sort_faults_parallel, f1m_t1, std::size_t{1} << 20, 1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(bm_sort_faults_parallel, f1m_t2, std::size_t{1} << 20, 2)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(bm_sort_faults_parallel, f1m_t8, std::size_t{1} << 20, 8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_CAPTURE(bm_analysis, S1, std::string("S1"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_analysis, S2, std::string("S2"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_analysis, c7552, std::string("c7552"))
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
