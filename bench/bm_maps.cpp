// Container and codec rows for BENCH_maps.json: the hot-path memory
// work this layer rests on, measured head-to-head.
//
//   maps   — util::dense_map vs std::unordered_map on the integer-keyed
//            access patterns the serving layer actually has: insert,
//            lookup and insert/erase churn at 1k and 100k keys, over
//            consecutive IDs (circuit handles, poller keys — the
//            direct-index array case) and splitmix-scattered 64-bit keys
//            (the adversarial all-hash case). The acceptance row is
//            consecutive-key lookup at 100k keys: the array region must
//            beat the unordered_map by >= 3x.
//   codec  — svc::wire encode on the reuse contract (encode_into into a
//            persistent scratch string, the server worker's path) vs a
//            fresh string per response, and string_view decode. Every
//            row reports allocs_per_op via the counting global operator
//            new below; the reuse row's figure of merit is exactly 0 and
//            the decode row's exactly 1 (the decoded weight vector).
//
// The erase rows time a full insert-then-erase cycle per key ("churn"):
// steady-state erase alone cannot be measured without rebuilding the
// container inside the timed region, and churn is the shape the
// engine-pool free-slot table sees (give_back inserts, checkout erases).

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "svc/request.h"
#include "svc/wire.h"
#include "util/dense_map.h"

// --- counting allocator ------------------------------------------------------

// Per-thread allocation counter behind global operator new: benchmarks
// snapshot it around the timed loop and report the delta per iteration.
// thread_local keeps the count race-free without an atomic in the path.
namespace {
thread_local std::uint64_t g_allocs = 0;
}

// GCC's -Wmismatched-new-delete pairs the replaced operators lexically
// and flags free() against new[]; the replacement set below is matched
// by construction (every operator is malloc/free backed).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
    ++g_allocs;
    if (void* p = std::malloc(n ? n : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
    ++g_allocs;
    if (void* p = std::malloc(n ? n : 1)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace wrpt;

// splitmix64: a bijection, so sparse key sets stay collision-free.
std::uint64_t mix(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

std::vector<std::uint64_t> make_keys(std::int64_t n, bool sparse) {
    std::vector<std::uint64_t> keys(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i)
        keys[static_cast<std::size_t>(i)] =
            sparse ? mix(static_cast<std::uint64_t>(i))
                   : static_cast<std::uint64_t>(i);
    return keys;
}

void report_allocs(benchmark::State& state, std::uint64_t before) {
    state.counters["allocs_per_op"] = benchmark::Counter(
        static_cast<double>(g_allocs - before) /
        static_cast<double>(state.iterations()));
}

// --- map rows ----------------------------------------------------------------

template <bool Sparse>
void bm_insert_dense(benchmark::State& state) {
    const auto keys = make_keys(state.range(0), Sparse);
    const std::uint64_t before = g_allocs;
    for (auto _ : state) {
        util::dense_map<std::uint64_t> m;
        for (const std::uint64_t k : keys) m.try_emplace(k, k);
        benchmark::DoNotOptimize(m.size());
    }
    report_allocs(state, before);
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

template <bool Sparse>
void bm_insert_umap(benchmark::State& state) {
    const auto keys = make_keys(state.range(0), Sparse);
    const std::uint64_t before = g_allocs;
    for (auto _ : state) {
        std::unordered_map<std::uint64_t, std::uint64_t> m;
        for (const std::uint64_t k : keys) m.try_emplace(k, k);
        benchmark::DoNotOptimize(m.size());
    }
    report_allocs(state, before);
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

template <bool Sparse>
void bm_lookup_dense(benchmark::State& state) {
    const auto keys = make_keys(state.range(0), Sparse);
    util::dense_map<std::uint64_t> m;
    for (const std::uint64_t k : keys) m.try_emplace(k, k);
    const auto& cm = m;  // const find: the count-free shared-read path
    const std::uint64_t before = g_allocs;
    for (auto _ : state) {
        std::uint64_t sum = 0;
        for (const std::uint64_t k : keys) sum += *cm.find(k);
        benchmark::DoNotOptimize(sum);
    }
    report_allocs(state, before);
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

template <bool Sparse>
void bm_lookup_umap(benchmark::State& state) {
    const auto keys = make_keys(state.range(0), Sparse);
    std::unordered_map<std::uint64_t, std::uint64_t> m;
    for (const std::uint64_t k : keys) m.try_emplace(k, k);
    const std::uint64_t before = g_allocs;
    for (auto _ : state) {
        std::uint64_t sum = 0;
        for (const std::uint64_t k : keys) sum += m.find(k)->second;
        benchmark::DoNotOptimize(sum);
    }
    report_allocs(state, before);
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

template <bool Sparse>
void bm_churn_dense(benchmark::State& state) {
    const auto keys = make_keys(state.range(0), Sparse);
    util::dense_map<std::uint64_t> m;  // reused: capacity reaches steady state
    const std::uint64_t before = g_allocs;
    for (auto _ : state) {
        for (const std::uint64_t k : keys) m.try_emplace(k, k);
        for (const std::uint64_t k : keys) m.erase(k);
        benchmark::DoNotOptimize(m.size());
    }
    report_allocs(state, before);
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

template <bool Sparse>
void bm_churn_umap(benchmark::State& state) {
    const auto keys = make_keys(state.range(0), Sparse);
    std::unordered_map<std::uint64_t, std::uint64_t> m;
    const std::uint64_t before = g_allocs;
    for (auto _ : state) {
        for (const std::uint64_t k : keys) m.try_emplace(k, k);
        for (const std::uint64_t k : keys) m.erase(k);
        benchmark::DoNotOptimize(m.size());
    }
    report_allocs(state, before);
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

BENCHMARK(bm_insert_dense<false>)->Name("maps/insert/dense/consecutive")->Arg(1000)->Arg(100000);
BENCHMARK(bm_insert_umap<false>)->Name("maps/insert/umap/consecutive")->Arg(1000)->Arg(100000);
BENCHMARK(bm_insert_dense<true>)->Name("maps/insert/dense/sparse")->Arg(1000)->Arg(100000);
BENCHMARK(bm_insert_umap<true>)->Name("maps/insert/umap/sparse")->Arg(1000)->Arg(100000);
BENCHMARK(bm_lookup_dense<false>)->Name("maps/lookup/dense/consecutive")->Arg(1000)->Arg(100000);
BENCHMARK(bm_lookup_umap<false>)->Name("maps/lookup/umap/consecutive")->Arg(1000)->Arg(100000);
BENCHMARK(bm_lookup_dense<true>)->Name("maps/lookup/dense/sparse")->Arg(1000)->Arg(100000);
BENCHMARK(bm_lookup_umap<true>)->Name("maps/lookup/umap/sparse")->Arg(1000)->Arg(100000);
BENCHMARK(bm_churn_dense<false>)->Name("maps/churn/dense/consecutive")->Arg(1000)->Arg(100000);
BENCHMARK(bm_churn_umap<false>)->Name("maps/churn/umap/consecutive")->Arg(1000)->Arg(100000);
BENCHMARK(bm_churn_dense<true>)->Name("maps/churn/dense/sparse")->Arg(1000)->Arg(100000);
BENCHMARK(bm_churn_umap<true>)->Name("maps/churn/umap/sparse")->Arg(1000)->Arg(100000);

// --- codec rows --------------------------------------------------------------

// A representative serve-path response: optimize result with a 48-input
// weight vector — the largest common payload the worker encodes.
svc::response sample_response() {
    svc::response r;
    r.id = 42;
    svc::optimize_response p;
    p.circuit = 0;
    p.revision = 7;
    p.feasible = true;
    p.initial_length = 7105095682.0;
    p.final_length = 52384.0;
    p.sweeps = 3;
    p.analysis_calls = 297;
    p.weights.resize(48, 0.95);
    p.length.feasible = true;
    p.length.test_length = 52384.0;
    p.length.relevant_faults = 31;
    p.length.hardest_probability = 1.5683898205950074e-4;
    r.payload = std::move(p);
    return r;
}

void bm_encode_fresh(benchmark::State& state) {
    const svc::response r = sample_response();
    const std::uint64_t before = g_allocs;
    for (auto _ : state) {
        std::string out = svc::encode(r);
        benchmark::DoNotOptimize(out.data());
    }
    report_allocs(state, before);
}
BENCHMARK(bm_encode_fresh)->Name("codec/encode/fresh_string");

void bm_encode_reuse(benchmark::State& state) {
    const svc::response r = sample_response();
    std::string out;
    svc::encode_into(r, out);  // warm the scratch to working size
    const std::uint64_t before = g_allocs;
    for (auto _ : state) {
        svc::encode_into(r, out);
        benchmark::DoNotOptimize(out.data());
    }
    report_allocs(state, before);  // the acceptance figure: exactly 0
}
BENCHMARK(bm_encode_reuse)->Name("codec/encode/reuse_scratch");

void bm_decode_view(benchmark::State& state) {
    svc::request q;
    q.id = 42;
    svc::test_length_request p;
    p.circuit = 3;
    p.weights.resize(48, 0.95);
    q.payload = std::move(p);
    const std::string line = svc::encode(q);
    svc::decode_request(line);  // grow the per-thread scan buffers once
    const std::uint64_t before = g_allocs;
    for (auto _ : state) {
        const svc::request back =
            svc::decode_request(std::string_view(line));
        benchmark::DoNotOptimize(back.id);
    }
    report_allocs(state, before);  // exactly 1: the weight vector itself
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(line.size()));
}
BENCHMARK(bm_decode_view)->Name("codec/decode/string_view");

}  // namespace

BENCHMARK_MAIN();
