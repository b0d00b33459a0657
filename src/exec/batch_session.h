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
// Cross-request reuse: each circuit keeps one warm engine_pool for the
// session's lifetime. Engines built by one run() call go back warm and
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

    /// Issue a handle with nothing compiled under it yet (the registry's
    /// lazy-residency path); restore_circuit compiles it on first use.
    std::size_t reserve_handle() { return next_handle_++; }
    /// True while `handle` maps to a compiled circuit; reserved or retired
    /// handles report false (and are never reissued).
    bool has_circuit(std::size_t handle) const {
        return circuits_.contains(handle);
    }
    /// Hot reload: recompile `handle` in place from a fresh netlist. The
    /// replacement keeps its own (new) revision stamp, so results cached
    /// under the old revision are orphaned wholesale. Callers must hold
    /// the swap exclusive against run(): jobs still executing on the old
    /// view would otherwise lose it mid-flight. Returns the new revision.
    std::uint64_t replace_circuit(std::size_t handle, netlist nl);
    /// Drop `handle`'s compiled state (view, faults, warm engines) while
    /// keeping the handle retired-but-stable: other circuits keep their
    /// handles, and restore_circuit can recompile under the same one.
    void unload_circuit(std::size_t handle);
    /// Recompile a previously unloaded handle from `nl`. Passing a copy of
    /// the original netlist preserves its revision stamp (netlist copies
    /// share revisions), so cache entries keyed by it revalidate after the
    /// rebuild. Returns the compiled revision.
    std::uint64_t restore_circuit(std::size_t handle, netlist nl);

    std::size_t circuit_count() const { return circuits_.size(); }
    /// Ascending handles of every compiled circuit (reserved and retired
    /// handles excluded) — the iteration surface for stats and eviction
    /// sweeps, which can no longer assume handles are 0..count-1.
    std::vector<std::size_t> handles() const;
    const netlist& circuit(std::size_t handle) const;
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
    struct compiled_circuit {
        std::unique_ptr<netlist> nl;   // stable address for views/results
        std::unique_ptr<circuit_view> view;
        std::vector<fault> faults;
        // Warm engines over `view`, kept across run() calls; every job's
        // estimator adopts this pool instead of growing its own.
        std::unique_ptr<engine_pool> pool;
    };

    result run_one(const svc::job_request& j) const;
    const compiled_circuit& at(std::size_t handle) const;
    compiled_circuit compile(netlist nl) const;

    options options_;
    // Handle -> compiled circuit. Handles come from a monotonic counter,
    // so every probe lands in the map's direct-index array region; const
    // lookups are count-free, which keeps concurrent run_one() jobs
    // race-free. Keyed (rather than a plain vector) so the upcoming
    // registry can retire handles without invalidating the rest.
    util::dense_map<compiled_circuit, std::size_t> circuits_;
    std::size_t next_handle_ = 0;
    std::unique_ptr<thread_pool> pool_;
};

}  // namespace wrpt
