// The wire codec's allocation contract on the serve path:
//
//   - encode_into a warmed scratch string (the server worker's reuse
//     path) makes no allocation at all;
//   - decode_request of a 48-weight test_length line makes exactly one:
//     the decoded weight vector itself.
//
// This binary replaces global operator new with a counting one, so it is
// the only test that can see allocations; keep it the only one that does.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <variant>

#include <gtest/gtest.h>

#include "svc/request.h"
#include "svc/wire.h"

// Per-thread allocation counter behind global operator new: a test
// snapshots it around the calls under test. thread_local keeps the count
// race-free without an atomic in the path.
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

namespace wrpt {
namespace {

constexpr int reps = 100;

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

TEST(codec_allocs, encode_into_warm_scratch_allocates_nothing) {
    const svc::response r = sample_response();
    std::string out;
    svc::encode_into(r, out);  // warm the scratch to working size
    const std::string first = out;

    const std::uint64_t before = g_allocs;
    for (int i = 0; i < reps; ++i) svc::encode_into(r, out);
    const std::uint64_t allocs = g_allocs - before;

    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(out, first);
}

TEST(codec_allocs, decode_request_allocates_only_the_weight_vector) {
    svc::request q;
    q.id = 42;
    svc::test_length_request p;
    p.circuit = 3;
    p.weights.assign(48, 0.95);
    q.payload = std::move(p);
    const std::string line = svc::encode(q);
    svc::decode_request(line);  // grow the per-thread scan buffers once

    for (int i = 0; i < reps; ++i) {
        const std::uint64_t before = g_allocs;
        const svc::request back = svc::decode_request(std::string_view(line));
        const std::uint64_t allocs = g_allocs - before;

        ASSERT_EQ(allocs, 1u) << "decode " << i;
        const auto* got = std::get_if<svc::test_length_request>(&back.payload);
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(got->weights.size(), 48u);
    }
}

}  // namespace
}  // namespace wrpt
