// The unified serving facade: one object that owns a batch_session,
// routes typed requests (svc/request.h) to it, and answers repeated work
// from a per-circuit result cache.
//
// Result cache — two-level. Level 1 is a dense_map keyed by the circuit
// handle (handles are consecutive integers, so the probe is one
// direct-index load); each bucket carries the revision it caches for and
// a string-keyed map of entries. Level 2's key is a binary fingerprint of
// the *resolved* job, built by walking its wire field list (svc/schema.h)
// without copying the job: the kind, then every field in schema order —
// fixed-width integers, length-prefixed strings and lists, and each
// double's bit pattern — with the level-1 handle, the resolved registry
// name and the result-neutral thread counts left out, and an empty
// (= uniform) weight vector written as the explicit uniform vector, so
// both spellings share an entry. Two jobs share an entry exactly when
// their normalized canonical wire encodings are equal; doubles compare
// by bits, so 0 and -0 (equal as numbers, different on the wire) stay
// apart. A repeat query therefore pays one array probe + one revision
// compare before the string probe, and the string probe only searches
// entries of its own circuit. A re-stamped handle (new revision) orphans
// its whole bucket at once. All three job kinds are deterministic given
// their key (the bit-identity invariants of the pipeline and the seeded
// simulator), so a hit replays the stored result and its stored bytes:
// everything a hit's envelope carries after `{"id":N` is fixed by the
// entry (the key fixes the handle, the bucket the revision, and a hit is
// always cached with elapsed_ms 0), so each entry is encoded once, outside
// the cache lock before insertion, and every hit — single, matrix entry or
// in-batch duplicate — shares those bytes through response::hit_bytes
// (the typed payload is still filled in). probe/hit/miss/eviction/bytes
// counters are served by the stats request. An entry is charged the
// length of its job's normalized canonical wire encoding (computed on
// insert, so the binary key does not move the byte counters or quotas);
// the hit bytes it also holds are not charged.
//
// Every request is answered with a response envelope: failures
// (unknown circuit handles, malformed weights, non-finite values) become
// ok=false error payloads instead of exceptions, so a serving loop never
// dies on a bad request. Matrix requests validate and answer each job
// individually — invalid entries get per-entry error envelopes while the
// valid remainder still runs concurrently on the session pool.
//
// Circuit names: jobs may address a circuit as "tenant/name" instead of
// a handle; the name is resolved through the registry (svc/registry.h)
// under the session lock and rewritten away before the cache fingerprint
// is built, so named and handle spellings of one query share an entry. A
// batch whose named views are all resident runs under the shared lock;
// one that needs a compile (lazy residency, or a view evicted by the
// --max-views LRU) takes the lock exclusively for the batch.
//
// Concurrency: handle() is safe to call from many threads at once — the
// contract the socket daemon (svc/server.h) runs one session per
// connection on. Two locks split the shared state: a shared_mutex over
// the session structure (load/register/reload take it exclusively while
// they reshape the circuit table; jobs, stats and evict share it) and a
// plain mutex over the result cache and its counters, held only for
// probes and inserts, never across a computation. The registry carries
// its own shared_mutex between the two (lock order: session -> registry
// -> cache). Job results stay deterministic, so
// the race two connections can win against one cache key is benign: both
// compute the same bits, each counts as a miss, the second insert
// replaces an identical entry — and every job is still accounted as
// exactly one hit or one miss.

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "exec/batch_session.h"
#include "svc/registry.h"
#include "svc/request.h"
#include "util/dense_map.h"
#include "util/sync.h"

namespace wrpt::svc {

class service {
public:
    struct options {
        /// Worker threads for the underlying batch_session (0 = hardware).
        unsigned threads = 0;
        /// Session default confidence for test_length jobs at 0.
        double confidence = 0.999;
        /// Per-circuit engine-pool capacity (0 = unbounded).
        std::size_t max_engines = 0;
        /// Result-cache entry cap across all circuits (0 = unbounded);
        /// the oldest entries are evicted first.
        std::size_t max_cache_entries = 0;
        /// Resident compiled views across the registry catalog (0 =
        /// unbounded): registered circuits beyond this stay parsed-only
        /// until a named job compiles them, evicting the coldest view.
        std::size_t max_views = 0;
        /// Uniform per-tenant limits for registered circuits (0 fields =
        /// unbounded); see registry::tenant_quota.
        registry::tenant_quota tenant_quota;
    };

    service();
    explicit service(options opt);
    ~service();

    service(const service&) = delete;
    service& operator=(const service&) = delete;

    /// Route one request; never throws for request-level failures (they
    /// come back as error envelopes with the request id echoed).
    response handle(const request& q);

    /// The underlying session, for callers that need direct access to
    /// compiled circuits (views, fault lists, pools). Opted out of the
    /// analysis: direct session access is the single-threaded setup path
    /// (tests, tools) — concurrent callers go through handle(), which
    /// takes session_mutex_.
    batch_session& session() WRPT_NO_THREAD_SAFETY_ANALYSIS {
        return *session_;
    }
    const batch_session& session() const WRPT_NO_THREAD_SAFETY_ANALYSIS {
        return *session_;
    }

    /// Cache counters (also served by the stats request).
    struct cache_counters {
        std::uint64_t probes = 0;  ///< cache lookups actually performed
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::size_t entries = 0;
        std::uint64_t bytes = 0;   ///< approximate retained payload bytes
    };
    cache_counters cache_stats() const;

    /// The named-circuit catalog (internally synchronized); tests and
    /// tools read counters and rows from it directly.
    const registry& catalog() const { return registry_; }

private:
    /// A job by reference: a single-job request is answered without
    /// copying its payload (and its weight vector) into a job_request.
    using job_ref = std::variant<const test_length_request*,
                                 const optimize_request*,
                                 const fault_sim_request*>;

    /// Where an entry lives: level-1 handle, the revision the bucket must
    /// carry for the entry to be valid, and the level-2 fingerprint (the
    /// binary key of the resolved job, see the header comment). The
    /// handle keeps structurally-copied circuits (which share a revision
    /// stamp) from aliasing; the revision orphans a re-stamped handle's
    /// bucket wholesale.
    struct cache_locator {
        std::size_t circuit = 0;
        std::uint64_t revision = 0;
        std::string fingerprint;
    };

    struct cache_entry {
        batch_session::result result;
        /// What every hit on this entry encodes to after `{"id":N`
        /// (response::hit_bytes), encoded once, before insertion.
        std::shared_ptr<const std::string> hit_bytes;
        std::uint64_t sequence = 0;  ///< insertion order, for eviction
        std::uint64_t bytes = 0;     ///< entry_cost at insertion
    };

    /// Level-1 bucket: all cached results for one circuit handle at one
    /// revision. The level-2 key is an arbitrary-length fingerprint
    /// string, never iterated in result-affecting order, so unordered_map
    /// is the right container here, not the integer-keyed dense_map.
    struct circuit_bucket {
        std::uint64_t revision = 0;
        std::unordered_map<std::string, cache_entry>  // wrpt-lint: allow(dense-map)
            entries;
        std::uint64_t bytes = 0;
    };

    /// FIFO eviction record; stale (already erased or re-inserted under a
    /// newer sequence) records are skipped lazily.
    struct order_record {
        std::size_t circuit = 0;
        std::uint64_t sequence = 0;
        std::string fingerprint;
    };

    response handle_load(std::uint64_t id, const load_circuit_request& p);
    response handle_register(std::uint64_t id,
                             const register_circuit_request& p);
    response handle_reload(std::uint64_t id, const reload_circuit_request& p);
    response handle_list(std::uint64_t id, const list_circuits_request& p);
    response handle_stats(std::uint64_t id);
    response handle_evict(std::uint64_t id, const evict_request& p);
    response handle_matrix(std::uint64_t id, const matrix_request& p);

    /// Answer a batch of jobs: cached entries replay, the rest run
    /// concurrently through the session. responses[i] answers jobs[i].
    std::vector<response> run_jobs(std::uint64_t id,
                                   std::span<const job_ref> jobs);
    /// The run_jobs body; the caller holds session_mutex_ shared (matrix
    /// expansion must read the circuit table under the same lock).
    std::vector<response> run_jobs_locked(std::uint64_t id,
                                          std::span<const job_ref> jobs)
        WRPT_REQUIRES_SHARED(session_mutex_);

    /// Resolve a named job's registry name to its handle, rewriting the
    /// job in place — the name is cleared, so named and handle spellings
    /// of the same query share one cache fingerprint. Returns a non-empty
    /// message on failure and fills `code` with the typed refusal class
    /// ("not-found" / "not-ready").
    std::string resolve_named(job_request& j, std::string* code) const
        WRPT_REQUIRES_SHARED(session_mutex_);
    /// Validate a job against the session (handle range, weight values);
    /// returns a non-empty message on failure.
    std::string validate(job_ref j) const
        WRPT_REQUIRES_SHARED(session_mutex_);
    cache_locator key_of(job_ref j) const
        WRPT_REQUIRES_SHARED(session_mutex_);
    /// The bytes a cache entry for job `j` with result `r` is charged.
    std::uint64_t entry_cost(job_ref j, const batch_session::result& r) const
        WRPT_REQUIRES_SHARED(session_mutex_);
    /// Probe the two-level cache (caller holds cache_mutex_): counts a
    /// probe, returns the entry or nullptr. Does not count hit/miss —
    /// the caller owns job-level accounting.
    const cache_entry* probe_cached(const cache_locator& key)
        WRPT_REQUIRES(cache_mutex_);
    void insert_cached(cache_locator key, std::uint64_t cost,
                       const batch_session::result& r,
                       std::shared_ptr<const std::string> hit_bytes)
        WRPT_REQUIRES(cache_mutex_);
    /// Attribute `delta` cache bytes to the tenant owning `circuit` (a
    /// no-op for handle-loaded circuits outside the registry).
    void tenant_bytes_add(std::size_t circuit, std::int64_t delta)
        WRPT_REQUIRES(cache_mutex_);
    /// Evict the oldest cache entries of `circuit`'s tenant until its
    /// bytes fit the per-tenant quota (no-op without a quota).
    void enforce_tenant_cache_quota(std::size_t circuit)
        WRPT_REQUIRES(cache_mutex_);
    static response to_response(std::uint64_t id,
                                const batch_session::result& r, bool cached);
    /// The hit bytes of a cache entry holding `r`: its cached response's
    /// canonical encoding without the leading `{"id":0`.
    static std::shared_ptr<const std::string> encode_hit(
        const batch_session::result& r);

    options options_;

    /// Session-structure lock: add_circuit (exclusive) vs everything that
    /// reads the circuit table (shared). Always taken before cache_mutex_
    /// when both are needed.
    mutable wrpt::shared_mutex session_mutex_
        WRPT_ACQUIRED_BEFORE(cache_mutex_);
    /// Result-cache lock: cache_, cache_order_ and the counters. Held for
    /// probes and inserts only, never while a job computes.
    mutable wrpt::mutex cache_mutex_;

    /// The pointer is set once in the constructor; the session *structure*
    /// (circuit table growth vs readers) is what session_mutex_ guards.
    std::unique_ptr<batch_session> session_
        WRPT_PT_GUARDED_BY(session_mutex_);

    /// Named-circuit catalog. Internally synchronized with its own
    /// shared_mutex, always acquired under session_mutex_ and never under
    /// cache_mutex_ (lock order: session -> registry -> cache).
    registry registry_;

    /// Level 1: handle -> bucket. Handles are consecutive, so every
    /// probe is a direct-index array load (count-free const reads are not
    /// needed here — the cache mutex serializes access).
    util::dense_map<circuit_bucket, std::size_t> cache_
        WRPT_GUARDED_BY(cache_mutex_);
    /// Insertion order for O(1)-amortized oldest-first eviction under
    /// max_cache_entries; maintained only when a cap is set.
    std::deque<order_record> cache_order_ WRPT_GUARDED_BY(cache_mutex_);
    std::uint64_t cache_sequence_ WRPT_GUARDED_BY(cache_mutex_) = 0;
    std::uint64_t cache_probes_ WRPT_GUARDED_BY(cache_mutex_) = 0;
    std::uint64_t cache_hits_ WRPT_GUARDED_BY(cache_mutex_) = 0;
    std::uint64_t cache_misses_ WRPT_GUARDED_BY(cache_mutex_) = 0;
    std::uint64_t cache_evictions_ WRPT_GUARDED_BY(cache_mutex_) = 0;
    std::size_t cache_entries_ WRPT_GUARDED_BY(cache_mutex_) = 0;
    std::uint64_t cache_bytes_ WRPT_GUARDED_BY(cache_mutex_) = 0;
    /// Handle -> owning tenant, for per-tenant cache accounting. Written
    /// once per registration; handles are consecutive, so the probe on
    /// every insert is a direct-index load.
    util::dense_map<std::string, std::size_t> handle_tenant_
        WRPT_GUARDED_BY(cache_mutex_);
    /// Tenant -> retained result-cache bytes (string-keyed aggregate over
    /// arbitrary tenant names, never iterated in result-affecting order).
    std::unordered_map<std::string, std::uint64_t>  // wrpt-lint: allow(dense-map)
        tenant_bytes_ WRPT_GUARDED_BY(cache_mutex_);
    std::atomic<std::uint64_t> requests_{0};
};

}  // namespace wrpt::svc
