// Multi-circuit optimization service — the serving-shaped engine layer.
//
// A deployment tests many circuit variants under many candidate weight
// vectors at once: N circuits x M weight vectors per request, millions of
// requests over the same compiled structures. batch_session is that
// surface: register circuits once (each is compiled to a circuit_view
// with input cones exactly once), then submit batches of jobs — OPTIMIZE
// runs, required-test-length queries, weighted fault simulations — that
// execute concurrently on the work-stealing pool. Every job gets private
// estimator/simulator state over the shared immutable view, so the only
// mutable sharing is the per-circuit engine_pool (mutex-guarded
// checkout/return); results are written into a slot per job, keyed by
// the circuit's revision stamp, and are bit-identical to running the same
// jobs sequentially.
//
// The circuit table: one row per handle, holding the circuit's netlist
// for the handle's whole life, its compiled state (view, faults, engine
// pool) or nothing while unloaded, and its owning tenant (empty for
// add_circuit). add_circuit compiles at once; svc/registry adds rows
// uncompiled, compiles them on first use and unloads cold ones, and every
// rebuild or reload compiles the row's own netlist. Callers serialize
// reshaping the table against run() (svc::service's session lock).
//
// Cross-request reuse: each compiled circuit keeps one warm engine_pool
// while it stays compiled. Engines built by one run() call go back warm and
// serve the next call after an incremental re-sync, so a long-lived
// session never pays the full-analysis build twice for the same
// concurrency level — asserted via pool(h).stats().hits in the tests.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/circuit_view.h"
#include "fault/fault.h"
#include "io/weights_io.h"
#include "netlist/netlist.h"
#include "opt/optimizer.h"
#include "svc/request.h"
#include "util/dense_map.h"

namespace wrpt {

class engine_pool;
class thread_pool;

class batch_session {
public:
    struct options {
        /// Worker threads for the session pool (0 = hardware threads).
        unsigned threads = 0;
        /// Confidence for test_length jobs that leave their own at 0.
        double confidence = 0.999;
        /// Per-circuit engine-pool capacity: at most this many warm
        /// engines are retained per circuit (0 = unbounded) — see
        /// engine_pool::set_capacity.
        std::size_t max_engines = 0;
    };

    batch_session();  // default options (defined out of line: the nested
                      // aggregate is incomplete at this point)
    explicit batch_session(options opt);
    ~batch_session();

    batch_session(const batch_session&) = delete;
    batch_session& operator=(const batch_session&) = delete;

    /// Register a circuit; the session owns it, compiles its view (with
    /// the engine structures) once, and generates its collapsed-free full
    /// fault list once. Returns the circuit handle used in jobs.
    std::size_t add_circuit(netlist nl);
    /// Read a .bench file and register it.
    std::size_t add_circuit_file(const std::string& path);

    /// Add a circuit owned by `tenant` without compiling it (the
    /// registry's lazy-residency path); compile_circuit builds its view on
    /// first use. add_circuit is this plus compile_circuit, for no tenant.
    std::size_t add_uncompiled(netlist nl, std::string tenant);
    /// Compile `handle`'s own netlist if it is not compiled. A netlist
    /// keeps its revision stamp, so cache entries keyed by it revalidate
    /// after an unload and a rebuild.
    void compile_circuit(std::size_t handle);
    /// Drop `handle`'s compiled state (view, faults, warm engines). The
    /// netlist, the tenant and the handle stay; compile_circuit rebuilds.
    void unload_circuit(std::size_t handle);
    /// Hot reload: swap `handle`'s netlist for a fresh one, recompiling in
    /// place if the circuit is compiled (an unloaded one compiles on its
    /// next compile_circuit). The replacement keeps its own (new) revision
    /// stamp, so results cached under the old revision are orphaned
    /// wholesale. Callers must hold the swap exclusive against run(): jobs
    /// still executing on the old view would otherwise lose it mid-flight.
    /// Returns the new revision.
    std::uint64_t replace_circuit(std::size_t handle, netlist nl);

    /// True while `handle` is compiled; unloaded and unknown handles
    /// report false.
    bool has_circuit(std::size_t handle) const {
        const circuit_row* row = circuits_.find(handle);
        return row != nullptr && row->state != nullptr;
    }
    /// Compiled circuits; unloaded ones are not counted.
    std::size_t circuit_count() const { return compiled_count_; }
    /// Ascending handles of every compiled circuit (unloaded ones
    /// excluded) — the iteration surface for stats and eviction sweeps,
    /// which cannot assume handles are 0..count-1.
    std::vector<std::size_t> handles() const;
    /// `handle`'s netlist, compiled or not.
    const netlist& circuit(std::size_t handle) const;
    /// The tenant that owns `handle`; empty for add_circuit circuits.
    const std::string& tenant(std::size_t handle) const {
        return row_at(handle).tenant;
    }
    const circuit_view& view(std::size_t handle) const;
    const std::vector<fault>& faults(std::size_t handle) const;
    /// The circuit's warm engine pool (shared by every job working it;
    /// stats() exposes the cross-run hit/miss/eviction counters). The
    /// pool is internally synchronized, so capacity changes and explicit
    /// eviction (svc::service's evict request) go through this const
    /// accessor too: its lookup is count-free, which keeps concurrent
    /// stats and evict requests under a shared session lock race-free.
    engine_pool& pool(std::size_t handle) const;

    /// The job vocabulary is the typed request layer (svc/request.h):
    /// svc::job_request — test_length_request, optimize_request or
    /// fault_sim_request — is what run() executes natively.
    using job_kind = svc::job_kind;

    struct result {
        std::size_t circuit = 0;
        std::uint64_t revision = 0;  ///< revision stamp the job ran against
        job_kind kind = job_kind::test_length;
        double elapsed_seconds = 0.0;  ///< wall time of this job alone
        /// test_length (also filled for optimize: the final length).
        test_length_report length;
        /// optimize jobs.
        optimize_result optimized;
        /// fault_sim jobs.
        std::uint64_t patterns_applied = 0;
        std::size_t fault_count = 0;
        std::size_t detected = 0;
        double coverage_percent = 0.0;
    };

    /// Execute all requests concurrently; results[i] answers requests[i].
    /// Bit-identical to running the requests one by one in order.
    std::vector<result> run(const std::vector<svc::job_request>& requests);

    /// Expand a matrix request into its job list (circuit-major order:
    /// jobs[c * weight_sets.size() + w]; an empty circuit list means
    /// every registered circuit) — the single definition of the N x M
    /// request shape. svc::service::handle(matrix_request) runs it with
    /// caching on top.
    std::vector<svc::job_request> expand_matrix(
        const svc::matrix_request& m) const;

private:
    /// View, faults and warm engines built from a row's netlist.
    struct compiled_state;
    /// One circuit, for the whole life of its handle.
    struct circuit_row {
        std::unique_ptr<netlist> nl;  // stable address for views/results
        std::string tenant;           // empty for add_circuit
        std::unique_ptr<compiled_state> state;  // null while unloaded
    };

    result run_one(const svc::job_request& j) const;
    /// The row behind `handle`; throws for an unknown handle.
    const circuit_row& row_at(std::size_t handle) const;
    circuit_row& row_at(std::size_t handle);
    /// The compiled state behind `handle`; throws unless it is compiled.
    compiled_state& at(std::size_t handle) const;

    options options_;
    // The circuit table: handle -> row. Rows stay for the session's life,
    // so handles are 0..size-1 and every probe lands in the map's
    // direct-index array region; const lookups are count-free, which keeps
    // concurrent run_one() jobs race-free.
    util::dense_map<circuit_row, std::size_t> circuits_;
    std::size_t compiled_count_ = 0;
    std::unique_ptr<thread_pool> pool_;
};

}  // namespace wrpt
