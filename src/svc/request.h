// Typed request/response value types — the unified serving API.
//
// Every way of driving the engine layer — one-shot CLI invocations, the
// `wrpt_cli batch` directory sweep, the persistent `wrpt_cli serve`
// daemon, and in-process embedders — speaks the same vocabulary: a
// `request` is an id plus one per-kind payload (load_circuit, optimize,
// test_length, fault_sim, matrix, stats, evict, shutdown), and a
// `response` is the id echoed back plus either a per-kind result payload
// or an error envelope. Requests are plain value types: they carry
// everything a job needs (circuit handle, weight vector, option payload)
// and nothing about how it executes, mirroring how distribution-tuning
// queries are treated as first-class data rather than imperative call
// sequences.
//
// Layering: this header depends only on io/ and opt/ option types, so
// exec/batch_session can adopt the job-shaped requests as its native job
// description without a dependency cycle; svc/service routes full
// requests to a batch_session and svc/wire gives every kind a lossless
// JSON-lines encoding. The wire keys of every struct here (and of
// optimize_options) are listed once, in svc/schema.h: a new member
// reaches the wire by one line there.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "io/weights_io.h"
#include "opt/optimizer.h"

namespace wrpt::svc {

// --- requests ---------------------------------------------------------------

/// Register a circuit with the service. Exactly one of `bench` (inline
/// .bench text), `path` (a .bench file) or `suite` (a paper suite name,
/// S1...c7552) must be non-empty; `name` optionally renames the circuit.
struct load_circuit_request {
    std::string name;
    std::string bench;
    std::string path;
    std::string suite;
};

/// ANALYSIS + NORMALIZE at fixed weights: the required-test-length query.
/// Empty weights mean the uniform vector; confidence 0 means the session
/// default; `threads` shards the stages (results are thread-invariant).
/// A non-empty `name` addresses a registry circuit as "tenant/name" and
/// overrides `circuit` (the handle is resolved server-side).
struct test_length_request {
    std::size_t circuit = 0;
    std::string name;
    weight_vector weights;
    double confidence = 0.0;
    unsigned threads = 1;
};

/// The full OPTIMIZE procedure from `weights` (empty = uniform start).
struct optimize_request {
    std::size_t circuit = 0;
    std::string name;  ///< "tenant/name" registry address (overrides circuit)
    weight_vector weights;
    optimize_options options;
};

/// Weighted-random fault simulation at fixed weights.
struct fault_sim_request {
    std::size_t circuit = 0;
    std::string name;  ///< "tenant/name" registry address (overrides circuit)
    weight_vector weights;
    std::uint64_t patterns = 4096;
    std::uint64_t seed = 1;
};

/// One executable unit of work — what batch_session runs natively.
using job_request =
    std::variant<test_length_request, optimize_request, fault_sim_request>;

enum class job_kind : std::uint8_t { test_length, optimize, fault_sim };

inline job_kind kind_of(const job_request& j) {
    return static_cast<job_kind>(j.index());
}

/// The N x M serving shape: every (circuit, weight vector) pair as one
/// job of `kind`, answered in circuit-major order. An empty circuit list
/// means every registered circuit; the option fields apply to every job
/// of the matching kind.
struct matrix_request {
    job_kind kind = job_kind::test_length;
    std::vector<std::size_t> circuits;
    std::vector<weight_vector> weight_sets;
    optimize_options options;         ///< optimize jobs
    std::uint64_t patterns = 4096;    ///< fault_sim jobs
    std::uint64_t seed = 1;           ///< fault_sim jobs
    double confidence = 0.0;          ///< test_length jobs (0 = default)
};

/// Service-wide counters: result cache, per-circuit engine pools.
struct stats_request {};

/// Drop cached state: result-cache entries and warm pooled engines for
/// one circuit (`all` false) or for every circuit (`all` true).
/// `keep_engines` warm engines per pool survive the trim.
struct evict_request {
    bool all = true;
    std::size_t circuit = 0;
    std::size_t keep_engines = 0;
};

/// Graceful daemon shutdown: acknowledged, then the serve loop exits.
struct shutdown_request {};

/// Register a circuit in the multi-tenant catalog under "tenant/name".
/// The netlist source is exactly one of `bench` / `path` / `suite`, as in
/// load_circuit. Registering an already-registered name is an error; use
/// reload_circuit to replace one atomically.
struct register_circuit_request {
    std::string tenant;
    std::string name;
    std::string bench;
    std::string path;
    std::string suite;
};

/// Atomic hot reload: recompile "tenant/name" from a fresh netlist source
/// under the same handle. In-flight jobs finish on the old view; the new
/// revision orphans the old cache bucket and warm engine slots.
struct reload_circuit_request {
    std::string tenant;
    std::string name;
    std::string bench;
    std::string path;
    std::string suite;
};

/// List the registry catalog, optionally filtered to one tenant.
struct list_circuits_request {
    std::string tenant;  ///< empty = every tenant
};

enum class request_kind : std::uint8_t {
    load_circuit,
    test_length,
    optimize,
    fault_sim,
    matrix,
    stats,
    evict,
    shutdown,
    register_circuit,
    reload_circuit,
    list_circuits,
};

struct request {
    std::uint64_t id = 0;
    std::variant<load_circuit_request, test_length_request, optimize_request,
                 fault_sim_request, matrix_request, stats_request,
                 evict_request, shutdown_request, register_circuit_request,
                 reload_circuit_request, list_circuits_request>
        payload;

    request_kind kind() const {
        return static_cast<request_kind>(payload.index());
    }
};

// --- responses --------------------------------------------------------------

struct response;  // forward: matrix_response nests full responses

/// Per-request failure envelope: the request id is echoed, `ok` is false
/// and this payload carries the message — the daemon never exits on a bad
/// request. `code` types the refusal for programmatic callers ("quota",
/// "not_found", ...); empty for generic errors and absent from the wire
/// encoding, so pre-registry transcripts are unchanged.
struct error_response {
    std::string message;
    std::string code;
};

struct load_circuit_response {
    std::size_t circuit = 0;
    std::string name;
    std::size_t inputs = 0;
    std::size_t outputs = 0;
    std::size_t gates = 0;
    std::size_t faults = 0;
    std::uint64_t revision = 0;
};

/// Required-test-length payload, also embedded in optimize responses.
struct length_payload {
    bool feasible = false;
    double test_length = 0.0;
    std::size_t relevant_faults = 0;
    std::size_t zero_prob_faults = 0;
    double hardest_probability = 0.0;
};

struct test_length_response {
    std::size_t circuit = 0;
    std::uint64_t revision = 0;
    bool cached = false;       ///< answered from the service result cache
    double elapsed_ms = 0.0;   ///< compute time (0 for cache hits)
    length_payload length;
};

struct optimize_response {
    std::size_t circuit = 0;
    std::uint64_t revision = 0;
    bool cached = false;
    double elapsed_ms = 0.0;
    bool feasible = false;
    double initial_length = 0.0;
    double final_length = 0.0;
    std::size_t sweeps = 0;
    std::size_t analysis_calls = 0;
    std::size_t zero_prob_faults = 0;
    weight_vector weights;     ///< the optimized input probabilities
    length_payload length;     ///< full report at the optimized vector
};

struct fault_sim_response {
    std::size_t circuit = 0;
    std::uint64_t revision = 0;
    bool cached = false;
    double elapsed_ms = 0.0;
    std::uint64_t patterns = 0;
    std::size_t faults = 0;
    std::size_t detected = 0;
    double coverage = 0.0;
};

struct matrix_response {
    std::vector<response> results;  ///< circuit-major, one per job
};

struct pool_stats_payload {
    std::size_t circuit = 0;
    std::uint64_t revision = 0;
    std::size_t engines = 0;    ///< owned in total (warm + on loan)
    std::size_t warm = 0;
    std::size_t capacity = 0;   ///< 0 = unbounded
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t resyncs = 0;
    std::size_t evictions = 0;
    /// Warm-slot-table entries moved by internal maintenance (growth
    /// migration, rehash, backward-shift erase) — checkout/eviction churn
    /// bookkeeping cost.
    std::size_t relocations = 0;
};

/// Admission-control counters of the socket server a stats response
/// passed through. Present only when a svc::server answered (the worker
/// stamps it after service::handle); absent — and absent from the wire
/// encoding — for the stdin daemon and direct in-process calls, so their
/// transcripts are unchanged.
struct server_stats_payload {
    bool present = false;
    std::size_t active = 0;            ///< sessions open right now
    std::size_t workers = 0;           ///< fixed worker-set size
    std::size_t max_connections = 0;   ///< admission cap (0 = unbounded)
    std::size_t queue_depth = 0;       ///< pending-request cap per connection
    std::size_t queue_bytes = 0;       ///< response outbox cap per connection
    std::uint64_t accepted = 0;
    std::uint64_t refused = 0;
    std::uint64_t requests = 0;
    std::uint64_t protocol_errors = 0;
    std::uint64_t overflows = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t queue_drops = 0;     ///< slow readers refused and dropped
    std::uint64_t accept_backoffs = 0; ///< EMFILE/ENFILE accept pauses
};

/// Per-tenant quota state inside the registry stats section.
struct tenant_stats_payload {
    std::string tenant;
    std::size_t circuits = 0;        ///< registered under this tenant
    std::size_t cache_bytes = 0;     ///< result-cache bytes attributed
    std::size_t max_circuits = 0;    ///< quota (0 = unbounded)
    std::size_t max_engines = 0;     ///< per-circuit engine cap (0 = none)
    std::size_t max_cache_bytes = 0; ///< cache-byte quota (0 = unbounded)
    std::uint64_t rejections = 0;    ///< typed quota refusals issued
};

/// Registry catalog counters. Present only once a circuit has been
/// registered (and absent from the wire encoding otherwise), so
/// registry-free transcripts are byte-identical to the pre-registry ones.
struct registry_stats_payload {
    bool present = false;
    std::size_t circuits = 0;        ///< registered entries
    std::size_t resident = 0;        ///< entries with a compiled view
    std::size_t max_views = 0;       ///< resident cap (0 = unbounded)
    std::uint64_t view_evictions = 0;
    std::uint64_t view_rebuilds = 0;
    std::vector<tenant_stats_payload> tenants;
};

struct stats_response {
    std::uint64_t requests = 0;       ///< requests handled so far
    std::uint64_t cache_probes = 0;   ///< result-cache lookups performed
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::size_t cache_entries = 0;
    std::uint64_t cache_evictions = 0;
    std::uint64_t cache_bytes = 0;    ///< approximate retained bytes
    std::size_t circuits = 0;
    /// Compute-kernel ISA name and vector lane width. The kernels are
    /// scalar, so a service always reports "scalar" / 1; the fields stay
    /// because clients that stamp their timings decode them.
    std::string simd_isa;
    std::size_t simd_lanes = 0;
    std::vector<pool_stats_payload> pools;
    registry_stats_payload registry;  ///< catalog section (optional)
    server_stats_payload server;      ///< socket-server section (optional)
};

struct evict_response {
    std::size_t cache_entries = 0;  ///< result-cache entries dropped
    std::size_t engines = 0;        ///< warm engines dropped
};

struct shutdown_response {};

struct register_circuit_response {
    std::string tenant;
    std::string name;
    std::size_t circuit = 0;    ///< the stable handle behind the name
    std::uint64_t revision = 0;
    std::size_t inputs = 0;
    std::size_t outputs = 0;
    std::size_t gates = 0;
};

struct reload_circuit_response {
    std::string tenant;
    std::string name;
    std::size_t circuit = 0;         ///< unchanged across reloads
    std::uint64_t revision = 0;      ///< the fresh stamp
    std::uint64_t old_revision = 0;  ///< what in-flight jobs finish on
    std::uint64_t reloads = 0;       ///< reload count for this entry
};

/// One catalog row in a list_circuits response.
struct catalog_entry_payload {
    std::string tenant;
    std::string name;
    std::size_t circuit = 0;
    std::uint64_t revision = 0;
    bool resident = false;  ///< compiled view currently in memory
    std::uint64_t reloads = 0;
};

struct list_circuits_response {
    std::vector<catalog_entry_payload> entries;  ///< sorted by tenant/name
};

enum class response_kind : std::uint8_t {
    error,
    load_circuit,
    test_length,
    optimize,
    fault_sim,
    matrix,
    stats,
    evict,
    shutdown,
    register_circuit,
    reload_circuit,
    list_circuits,
};

struct response {
    std::uint64_t id = 0;
    bool ok = true;
    std::variant<error_response, load_circuit_response, test_length_response,
                 optimize_response, fault_sim_response, matrix_response,
                 stats_response, evict_response, shutdown_response,
                 register_circuit_response, reload_circuit_response,
                 list_circuits_response>
        payload;
    /// A result-cache hit's wire bytes after `{"id":N` (svc/service.h):
    /// the encoder writes `{"id":` + id + these instead of walking the
    /// payload. Not on the wire. Whoever edits `ok` or the payload of a
    /// response must reset this first, or the edit is not encoded. (The
    /// initializer keeps `{id, ok, payload}` aggregates warning-free.)
    std::shared_ptr<const std::string> hit_bytes = nullptr;

    response_kind kind() const {
        return static_cast<response_kind>(payload.index());
    }
};

/// Build the standard failure envelope for a request id.
inline response make_error(std::uint64_t id, std::string message) {
    response r;
    r.id = id;
    r.ok = false;
    r.payload = error_response{std::move(message), std::string()};
    return r;
}

/// A typed failure envelope ("quota", "not-found", ...): programmatic
/// callers dispatch on `code`, humans read `message`.
inline response make_error(std::uint64_t id, std::string message,
                           std::string code) {
    response r;
    r.id = id;
    r.ok = false;
    r.payload = error_response{std::move(message), std::move(code)};
    return r;
}

}  // namespace wrpt::svc
