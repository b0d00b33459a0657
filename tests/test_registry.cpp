// Tests for the multi-tenant circuit registry: named registration and
// resolution, typed refusal codes, atomic hot reload (revision re-stamp,
// cache orphaning, in-flight safety under a concurrent reloader), the
// bounded-residency view LRU (1000 registrations under --max-views 32),
// per-tenant quotas, and the registry section of the stats response.

#include "svc/registry.h"

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/batch_session.h"
#include "exec/engine_pool.h"
#include "gen/comparator.h"
#include "io/bench_io.h"
#include "svc/service.h"
#include "svc/wire.h"

namespace wrpt {
namespace {

using namespace wrpt::svc;

// TSan multiplies runtimes; the race suite trims its iteration counts
// under it but keeps the same thread shapes.
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

request make_register(const std::string& tenant, const std::string& name,
                      const std::string& bench) {
    request q;
    register_circuit_request p;
    p.tenant = tenant;
    p.name = name;
    p.bench = bench;
    q.payload = std::move(p);
    return q;
}

request make_reload(const std::string& tenant, const std::string& name,
                    const std::string& bench) {
    request q;
    reload_circuit_request p;
    p.tenant = tenant;
    p.name = name;
    p.bench = bench;
    q.payload = std::move(p);
    return q;
}

request make_named_length(const std::string& address) {
    request q;
    test_length_request p;
    p.name = address;
    q.payload = std::move(p);
    return q;
}

request make_named_sim(const std::string& address) {
    request q;
    fault_sim_request p;
    p.name = address;
    p.patterns = 256;
    p.seed = 7;
    q.payload = std::move(p);
    return q;
}

const std::string& error_code(const response& r) {
    return std::get<error_response>(r.payload).code;
}

// Strip the per-run fields (revision stamps are process-unique, cached
// and elapsed_ms depend on timing) so two responses computed from the
// same netlist text compare bit-identical through the canonical encoder.
std::string normalized(const response& r) {
    response c = r;
    c.hit_bytes.reset();  // the edits below must reach the encoder
    c.id = 0;
    if (auto* p = std::get_if<test_length_response>(&c.payload)) {
        p->revision = 0;
        p->cached = false;
        p->elapsed_ms = 0.0;
    } else if (auto* p = std::get_if<fault_sim_response>(&c.payload)) {
        p->revision = 0;
        p->cached = false;
        p->elapsed_ms = 0.0;
    }
    return encode(c);
}

std::string tiny_bench(unsigned width, const std::string& name) {
    return write_bench_string(make_cascaded_comparator(width, name));
}

// --- direct registry API ----------------------------------------------------

TEST(registry, direct_register_resolve_and_lazy_residency) {
    batch_session session;
    registry reg;

    const auto made = reg.register_circuit(session, "t", "a",
                                           make_cascaded_comparator(2, "a"));
    // Lazy: a handle is reserved but nothing is compiled yet.
    EXPECT_FALSE(session.has_circuit(made.handle));
    EXPECT_TRUE(reg.needs_compile("t/a"));

    const registry::resolution res = reg.resolve("t/a");
    EXPECT_TRUE(res.found);
    EXPECT_FALSE(res.resident);
    EXPECT_EQ(res.handle, made.handle);
    EXPECT_FALSE(reg.resolve("t/missing").found);

    reg.ensure_resident(session, "t/a");
    EXPECT_TRUE(session.has_circuit(made.handle));
    EXPECT_FALSE(reg.needs_compile("t/a"));
    EXPECT_EQ(session.circuit(made.handle).revision(), made.revision);

    const auto rows = reg.list("");
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].tenant, "t");
    EXPECT_EQ(rows[0].name, "a");
    EXPECT_TRUE(rows[0].resident);

    const registry::counters c = reg.stats();
    EXPECT_EQ(c.circuits, 1u);
    EXPECT_EQ(c.resident, 1u);
    EXPECT_EQ(c.view_rebuilds, 1u);
    EXPECT_EQ(c.view_evictions, 0u);
}

TEST(registry, refusals_carry_typed_codes) {
    batch_session session;
    registry reg;
    reg.register_circuit(session, "t", "a", make_cascaded_comparator(2, "a"));

    try {
        reg.register_circuit(session, "t", "a",
                             make_cascaded_comparator(2, "a"));
        FAIL() << "duplicate registration must throw";
    } catch (const registry_error& e) {
        EXPECT_EQ(e.code(), "exists");
    }
    try {
        reg.register_circuit(session, "bad/tenant", "x",
                             make_cascaded_comparator(2, "x"));
        FAIL() << "a '/' in the tenant must throw";
    } catch (const registry_error& e) {
        EXPECT_EQ(e.code(), "invalid");
    }
    try {
        reg.reload_circuit(session, "t", "missing",
                           make_cascaded_comparator(2, "m"));
        FAIL() << "reloading an unknown name must throw";
    } catch (const registry_error& e) {
        EXPECT_EQ(e.code(), "not-found");
    }
}

// --- served named jobs ------------------------------------------------------

TEST(registry, named_jobs_resolve_and_share_the_cache_with_handles) {
    service s;
    const response reg = s.handle(make_register("t", "cmp", tiny_bench(2, "cmp")));
    ASSERT_TRUE(reg.ok);
    const auto& rr = std::get<register_circuit_response>(reg.payload);
    EXPECT_GT(rr.inputs, 0u);
    EXPECT_GT(rr.gates, 0u);

    const response by_name = s.handle(make_named_length("t/cmp"));
    ASSERT_TRUE(by_name.ok);
    const auto& rn = std::get<test_length_response>(by_name.payload);
    EXPECT_FALSE(rn.cached);
    EXPECT_EQ(rn.circuit, rr.circuit);  // the response reports the handle

    // The same query spelled with the raw handle must hit the same cache
    // entry: resolve_named rewrites names away before fingerprinting.
    request by_handle;
    test_length_request p;
    p.circuit = rr.circuit;
    by_handle.payload = p;
    const response rh = s.handle(by_handle);
    ASSERT_TRUE(rh.ok);
    EXPECT_TRUE(std::get<test_length_response>(rh.payload).cached);
    EXPECT_EQ(std::get<test_length_response>(rh.payload).length.test_length,
              rn.length.test_length);

    // Unknown names get typed envelopes, not exceptions.
    const response missing = s.handle(make_named_length("t/nope"));
    ASSERT_FALSE(missing.ok);
    EXPECT_EQ(error_code(missing), "not-found");
    const response dup = s.handle(make_register("t", "cmp", tiny_bench(2, "cmp")));
    ASSERT_FALSE(dup.ok);
    EXPECT_EQ(error_code(dup), "exists");
}

TEST(registry, catalog_lists_sorted_rows_with_tenant_filter) {
    service s;
    ASSERT_TRUE(s.handle(make_register("u", "b", tiny_bench(1, "ub"))).ok);
    ASSERT_TRUE(s.handle(make_register("t", "b", tiny_bench(1, "tb"))).ok);
    ASSERT_TRUE(s.handle(make_register("t", "a", tiny_bench(1, "ta"))).ok);

    request all;
    all.payload = list_circuits_request{};
    const response ra = s.handle(all);
    ASSERT_TRUE(ra.ok);
    const auto& rows = std::get<list_circuits_response>(ra.payload).entries;
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].tenant + "/" + rows[0].name, "t/a");
    EXPECT_EQ(rows[1].tenant + "/" + rows[1].name, "t/b");
    EXPECT_EQ(rows[2].tenant + "/" + rows[2].name, "u/b");
    EXPECT_FALSE(rows[0].resident);  // nothing compiled yet

    request only_u;
    only_u.payload = list_circuits_request{"u"};
    const response ru = s.handle(only_u);
    const auto& urows = std::get<list_circuits_response>(ru.payload).entries;
    ASSERT_EQ(urows.size(), 1u);
    EXPECT_EQ(urows[0].tenant, "u");
}

// --- hot reload -------------------------------------------------------------

TEST(registry, reload_restamps_the_revision_and_orphans_the_cache) {
    service s;
    ASSERT_TRUE(s.handle(make_register("t", "x", tiny_bench(2, "x"))).ok);

    const response first = s.handle(make_named_length("t/x"));
    ASSERT_TRUE(first.ok);
    const auto& r1 = std::get<test_length_response>(first.payload);
    EXPECT_FALSE(r1.cached);
    EXPECT_TRUE(
        std::get<test_length_response>(s.handle(make_named_length("t/x")).payload)
            .cached);

    // Reload with a structurally different netlist under the same name.
    const response rel = s.handle(make_reload("t", "x", tiny_bench(3, "x")));
    ASSERT_TRUE(rel.ok);
    const auto& rr = std::get<reload_circuit_response>(rel.payload);
    EXPECT_EQ(rr.old_revision, r1.revision);
    EXPECT_NE(rr.revision, rr.old_revision);
    EXPECT_EQ(rr.reloads, 1u);

    // Same name, new circuit: the old cache bucket is orphaned (a miss)
    // and the answer changes with the structure.
    const response second = s.handle(make_named_length("t/x"));
    ASSERT_TRUE(second.ok);
    const auto& r2 = std::get<test_length_response>(second.payload);
    EXPECT_FALSE(r2.cached);
    EXPECT_EQ(r2.revision, rr.revision);
    EXPECT_EQ(r2.circuit, rr.circuit);  // the handle survived the reload
    EXPECT_NE(r2.length.test_length, r1.length.test_length);
}

// --- view LRU ---------------------------------------------------------------

TEST(registry, evicted_views_rebuild_and_revalidate_cached_results) {
    service::options so;
    so.max_views = 1;
    service s(so);
    ASSERT_TRUE(s.handle(make_register("t", "a", tiny_bench(2, "a"))).ok);
    ASSERT_TRUE(s.handle(make_register("t", "b", tiny_bench(2, "b"))).ok);

    ASSERT_TRUE(s.handle(make_named_length("t/a")).ok);
    ASSERT_TRUE(s.handle(make_named_length("t/b")).ok);  // evicts a's view

    registry::counters c = s.catalog().stats();
    EXPECT_EQ(c.resident, 1u);
    EXPECT_EQ(c.view_rebuilds, 2u);
    EXPECT_EQ(c.view_evictions, 1u);

    // a's view rebuilds from the master copy, which shares the master's
    // revision stamp — so the result cached before the eviction is STILL
    // VALID and must hit.
    const response again = s.handle(make_named_length("t/a"));
    ASSERT_TRUE(again.ok);
    EXPECT_TRUE(std::get<test_length_response>(again.payload).cached);
    c = s.catalog().stats();
    EXPECT_EQ(c.resident, 1u);
    EXPECT_EQ(c.view_rebuilds, 3u);
    EXPECT_EQ(c.view_evictions, 2u);
}

TEST(registry, thousand_registrations_stay_within_max_views) {
    service::options so;
    so.max_views = 32;
    service s(so);

    const std::string bench = tiny_bench(1, "bulk");
    for (int i = 0; i < 1000; ++i) {
        std::string name = "c";
        name += std::to_string(i);
        ASSERT_TRUE(s.handle(make_register("t", name, bench)).ok);
    }

    // Touch a spread of 64 names: every one compiles (lazy residency) and
    // the LRU keeps at most 32 views in memory.
    for (int i = 0; i < 64; ++i) {
        std::string address = "t/c";
        address += std::to_string(i * 15);
        ASSERT_TRUE(s.handle(make_named_length(address)).ok);
    }

    const registry::counters c = s.catalog().stats();
    EXPECT_EQ(c.circuits, 1000u);
    EXPECT_EQ(c.resident, 32u);
    EXPECT_EQ(c.view_rebuilds, 64u);
    EXPECT_EQ(c.view_evictions, 32u);
    // The session holds exactly the resident views.
    EXPECT_EQ(s.session().circuit_count(), 32u);

    // The same bound is observable over the wire in the stats section.
    request sq;
    sq.payload = stats_request{};
    const auto st = std::get<stats_response>(s.handle(sq).payload);
    ASSERT_TRUE(st.registry.present);
    EXPECT_EQ(st.registry.circuits, 1000u);
    EXPECT_EQ(st.registry.resident, 32u);
    EXPECT_EQ(st.registry.max_views, 32u);
    EXPECT_EQ(st.registry.view_evictions, 32u);
    EXPECT_EQ(st.registry.view_rebuilds, 64u);
}

// --- per-tenant quotas ------------------------------------------------------

TEST(registry, circuit_quota_refuses_with_a_typed_envelope) {
    service::options so;
    so.tenant_quota.max_circuits = 2;
    service s(so);
    ASSERT_TRUE(s.handle(make_register("t", "a", tiny_bench(1, "a"))).ok);
    ASSERT_TRUE(s.handle(make_register("t", "b", tiny_bench(1, "b"))).ok);

    const response refused = s.handle(make_register("t", "c", tiny_bench(1, "c")));
    ASSERT_FALSE(refused.ok);
    EXPECT_EQ(error_code(refused), "quota");

    // The quota is per tenant: another tenant still registers.
    ASSERT_TRUE(s.handle(make_register("u", "c", tiny_bench(1, "c"))).ok);

    request sq;
    sq.payload = stats_request{};
    const auto st = std::get<stats_response>(s.handle(sq).payload);
    ASSERT_TRUE(st.registry.present);
    ASSERT_EQ(st.registry.tenants.size(), 2u);
    EXPECT_EQ(st.registry.tenants[0].tenant, "t");
    EXPECT_EQ(st.registry.tenants[0].circuits, 2u);
    EXPECT_EQ(st.registry.tenants[0].rejections, 1u);
    EXPECT_EQ(st.registry.tenants[0].max_circuits, 2u);
    EXPECT_EQ(st.registry.tenants[1].tenant, "u");
    EXPECT_EQ(st.registry.tenants[1].rejections, 0u);
}

TEST(registry, engine_quota_clamps_the_view_pool_capacity) {
    service::options so;
    so.tenant_quota.max_engines = 1;
    service s(so);
    const response reg = s.handle(make_register("t", "a", tiny_bench(2, "a")));
    ASSERT_TRUE(reg.ok);
    const std::size_t handle =
        std::get<register_circuit_response>(reg.payload).circuit;

    ASSERT_TRUE(s.handle(make_named_length("t/a")).ok);  // compiles the view
    EXPECT_EQ(s.session().pool(handle).capacity(), 1u);
}

TEST(registry, cache_byte_quota_evicts_the_tenants_entries) {
    service::options so;
    so.tenant_quota.max_cache_bytes = 1;  // nothing fits
    service s(so);
    ASSERT_TRUE(s.handle(make_register("t", "a", tiny_bench(2, "a"))).ok);

    ASSERT_TRUE(s.handle(make_named_length("t/a")).ok);
    // The entry was evicted right after insertion, so the repeat query
    // recomputes instead of hitting.
    const response again = s.handle(make_named_length("t/a"));
    ASSERT_TRUE(again.ok);
    EXPECT_FALSE(std::get<test_length_response>(again.payload).cached);

    request sq;
    sq.payload = stats_request{};
    const auto st = std::get<stats_response>(s.handle(sq).payload);
    EXPECT_GE(st.cache_evictions, 2u);
    ASSERT_TRUE(st.registry.present);
    ASSERT_EQ(st.registry.tenants.size(), 1u);
    EXPECT_EQ(st.registry.tenants[0].cache_bytes, 0u);
    EXPECT_EQ(st.registry.tenants[0].max_cache_bytes, 1u);
    // Every probe is still accounted as exactly one hit or miss.
    EXPECT_EQ(st.cache_probes, st.cache_hits + st.cache_misses);
}

// --- the hot-reload race suite ----------------------------------------------

// N workers hammer test_length and fault_sim jobs by name while a
// reloader keeps swapping the circuit between two structurally different
// netlists. Every successful response must be bit-identical (after
// revision/time normalization) to one of the two single-threaded
// reference answers — a torn view would produce a third value — and the
// only acceptable failures are typed registry envelopes. Run under TSan
// in CI, this is also the data-race proof for the registry lock order.
TEST(registry, hot_reload_race_yields_only_whole_revision_answers) {
    const std::string bench_a = tiny_bench(2, "race");
    const std::string bench_b = tiny_bench(3, "race");

    // Reference answers, computed alone on private services.
    auto reference = [](const std::string& bench, bool sim) {
        service ref;
        EXPECT_TRUE(ref.handle(make_register("t", "race", bench)).ok);
        const response r = ref.handle(sim ? make_named_sim("t/race")
                                          : make_named_length("t/race"));
        EXPECT_TRUE(r.ok);
        return normalized(r);
    };
    const std::set<std::string> valid = {
        reference(bench_a, false), reference(bench_b, false),
        reference(bench_a, true), reference(bench_b, true)};
    ASSERT_EQ(valid.size(), 4u);  // A and B really do answer differently

    service::options so;
    so.threads = 2;
    service s(so);
    ASSERT_TRUE(s.handle(make_register("t", "race", bench_a)).ok);

    // Two hammering workers, not more: every extra shared-lock holder
    // stretches the reloader's wait for the exclusive lock and the test
    // proves the same interleavings with far less wall time.
    constexpr int kWorkers = 2;
    const int reloads = WRPT_TSAN ? 6 : 16;
    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> answers{0};
    std::atomic<std::uint64_t> torn{0};
    std::atomic<std::uint64_t> bad_errors{0};

    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
        workers.emplace_back([&, w] {
            int i = 0;
            while (!done.load(std::memory_order_relaxed)) {
                const bool sim = ((w + i++) & 1) != 0;
                const response r = s.handle(sim ? make_named_sim("t/race")
                                                : make_named_length("t/race"));
                if (r.ok) {
                    answers.fetch_add(1, std::memory_order_relaxed);
                    if (valid.count(normalized(r)) == 0)
                        torn.fetch_add(1, std::memory_order_relaxed);
                } else {
                    const std::string& code = error_code(r);
                    if (code != "not-found" && code != "quota")
                        bad_errors.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    // Pace the reloader on the workers' progress: swapping revisions is
    // far cheaper than computing a job, so an unpaced loop can finish
    // every reload before the first answer lands and nothing actually
    // interleaves. Requiring one fresh answer per swap keeps every
    // reload racing live jobs (bounded by a deadline so a wedged worker
    // fails the assertions below instead of hanging the test).
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(30);
    std::uint64_t seen = answers.load(std::memory_order_relaxed);
    for (int i = 0; i < reloads; ++i) {
        const response r = s.handle(
            make_reload("t", "race", (i & 1) != 0 ? bench_b : bench_a));
        ASSERT_TRUE(r.ok);
        EXPECT_EQ(std::get<reload_circuit_response>(r.payload).reloads,
                  static_cast<std::uint64_t>(i + 1));
        while (answers.load(std::memory_order_relaxed) <= seen &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        seen = answers.load(std::memory_order_relaxed);
    }
    done.store(true, std::memory_order_relaxed);
    for (std::thread& t : workers) t.join();

    EXPECT_GT(answers.load(), 0u);
    EXPECT_EQ(torn.load(), 0u);
    EXPECT_EQ(bad_errors.load(), 0u);

    // The catalog survived with one entry, its reload count intact.
    const auto rows = s.catalog().list("t");
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].reloads, static_cast<std::uint64_t>(reloads));
}

// stats and evict both run under the shared session lock and read every
// circuit's engine pool. Several threads sending them to one service at
// once must not race (the pool lookup is count-free; CI's TSan job runs
// this suite), and every answer must be an ok envelope.
TEST(registry, concurrent_stats_and_evict_answer_without_racing) {
    service::options so;
    so.threads = 2;
    service s(so);
    std::vector<std::size_t> handles;
    for (const char* name : {"a", "b"}) {
        const response reg = s.handle(
            make_register("t", name, tiny_bench(2, name)));
        ASSERT_TRUE(reg.ok);
        handles.push_back(
            std::get<register_circuit_response>(reg.payload).circuit);
        // A named job makes the circuit resident, with a warm pool.
        ASSERT_TRUE(s.handle(make_named_length(std::string("t/") + name)).ok);
    }

    constexpr int kWorkers = 4;
    const int rounds = WRPT_TSAN ? 40 : 200;
    std::atomic<std::uint64_t> failures{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
        workers.emplace_back([&, w] {
            for (int i = 0; i < rounds; ++i) {
                request q;
                switch ((w + i) % 3) {
                    case 0:
                        q.payload = stats_request{};
                        break;
                    case 1:
                        q.payload = evict_request{};  // all circuits
                        break;
                    default: {
                        evict_request e;
                        e.all = false;
                        e.circuit = handles[static_cast<std::size_t>(i) %
                                            handles.size()];
                        q.payload = e;
                    }
                }
                if (!s.handle(q).ok)
                    failures.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (std::thread& t : workers) t.join();
    EXPECT_EQ(failures.load(), 0u);

    request q;
    q.payload = stats_request{};
    const response r = s.handle(q);
    ASSERT_TRUE(r.ok);
    const auto& st = std::get<stats_response>(r.payload);
    EXPECT_EQ(st.pools.size(), handles.size());
    EXPECT_EQ(st.cache_entries, 0u);  // every entry was evicted
}

}  // namespace
}  // namespace wrpt
