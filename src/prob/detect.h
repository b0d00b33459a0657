// Fault detection probability estimation — the paper's "ANALYSIS" tool.
//
// The optimizing procedure (paper section 4) only assumes "a tool available
// computing or estimating fault detection probabilities efficiently"
// (PROTEST there; "with slight modifications PREDICT or STAFAN will
// presumably work as well"). detect_estimator is that pluggable interface;
// four engines are provided:
//
//   cop_detect_estimator    analytic controllability x observability
//                           (fast; the workhorse, PROTEST-like)
//   exact_detect_estimator  BDD Boolean difference (exact; small circuits)
//   stafan_detect_estimator counting from fault-free simulation [AgJa84]
//   mc_detect_estimator     Monte-Carlo fault simulation (unbiased, cannot
//                           resolve probabilities below ~1/patterns)

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/fault.h"
#include "io/weights_io.h"
#include "netlist/netlist.h"
#include "prob/probe.h"

namespace wrpt {

class thread_pool;

class detect_estimator {
public:
    virtual ~detect_estimator() = default;

    virtual std::string name() const = 0;

    /// Detection probability p_f(X) for each fault under input
    /// probabilities `weights`. Values are in [0,1]; 0 means "not
    /// detectable as far as this engine can tell".
    virtual std::vector<double> estimate(const netlist& nl,
                                         const std::vector<fault>& faults,
                                         const weight_vector& weights) = 0;

    /// Batched PREPARE surface: detection probabilities at `base` with
    /// each probe's moves applied transiently, one result vector per
    /// probe (results[k][j] is fault j under probe k). Probes are
    /// independent given `base`, so implementations may answer them
    /// incrementally, out of order, or in parallel — but results are
    /// keyed by probe index, so the output is identical either way. The
    /// default materializes each probe's vector and runs a full
    /// estimate().
    virtual std::vector<std::vector<double>> estimate_probes(
        const netlist& nl, const std::vector<fault>& faults,
        const weight_vector& base, std::span<const probe> probes) {
        std::vector<std::vector<double>> out(probes.size());
        for (std::size_t k = 0; k < probes.size(); ++k)
            out[k] = estimate(nl, faults, apply_probe(base, probes[k]));
        return out;
    }

    /// Sharded ANALYSIS surface: detection probabilities for a fault
    /// shard (or the whole list) at `weights`, with `threads` workers
    /// (0 = all of the estimator's pool plus the caller, 1 = sequential).
    /// Results are keyed by fault index, and each fault's probability is
    /// a pure function of (netlist, weights), so the output is
    /// bit-identical for every thread count — the property the
    /// optimizer's sharded ANALYSIS stage rests on. The default ignores
    /// `threads` and materializes a fault vector for estimate().
    virtual std::vector<double> estimate_faults(const netlist& nl,
                                                std::span<const fault> faults,
                                                const weight_vector& weights,
                                                unsigned threads = 1) {
        (void)threads;
        return estimate(nl, std::vector<fault>(faults.begin(), faults.end()),
                        weights);
    }

    /// Worker-thread hint for estimators whose estimate_probes can
    /// execute probes in parallel (1 = sequential). Purely a performance
    /// knob: results do not depend on it.
    virtual void set_threads(unsigned) {}

    /// Single-input convenience: one probe moving `input` to `value` —
    /// the historical PREPARE query shape, now a wrapper over the batch.
    std::vector<double> estimate_input_delta(const netlist& nl,
                                             const std::vector<fault>& faults,
                                             const weight_vector& base,
                                             std::size_t input, double value) {
        const probe p{{input, value}};
        return std::move(
            estimate_probes(nl, faults, base, {&p, 1}).front());
    }
};

/// Analytic estimator: p_f = P(site carries the error value) * obs(line).
///
/// Keeps a compiled circuit_view and an engine_pool of incremental
/// cop_engines for the last netlist, so PREPARE's single-input probes
/// cost O(fanout cone of the input) instead of O(nodes) — see
/// cop_engine.h — and sharded ANALYSIS reads fault shards on concurrent
/// pool engines. The engine pool can also be adopted from outside
/// (batch_session keeps one warm per circuit across run() calls).
///
/// Sharded ANALYSIS and parallel PREPARE run on `workers`, a thread pool
/// the caller owns and keeps alive for the estimator's life; with no
/// pool every call runs on the caller's thread.
class cop_detect_estimator final : public detect_estimator {
public:
    explicit cop_detect_estimator(thread_pool* workers = nullptr);
    ~cop_detect_estimator() override;
    std::string name() const override { return "cop"; }
    std::vector<double> estimate(const netlist& nl,
                                 const std::vector<fault>& faults,
                                 const weight_vector& weights) override;

    /// Sharded ANALYSIS: the fault shard is cut into per-thread chunks,
    /// each read on its own pool engine synced to `weights`. An engine's
    /// state at `weights` is bit-identical whatever engine serves the
    /// chunk (the cop_engine invariant) and results are keyed by fault
    /// index, so the output matches the sequential path exactly for
    /// every thread count.
    std::vector<double> estimate_faults(const netlist& nl,
                                        std::span<const fault> faults,
                                        const weight_vector& weights,
                                        unsigned threads = 1) override;

    /// Batched probes over the incremental engine: each probe is one
    /// multi-input cop_engine transaction (union-of-cones move) answered
    /// from the shared base state and rolled back. With threads > 1 the
    /// probe list is executed by per-thread engines over the shared
    /// compiled circuit_view; results are keyed by probe index and
    /// bit-identical to the sequential path for every thread count.
    std::vector<std::vector<double>> estimate_probes(
        const netlist& nl, const std::vector<fault>& faults,
        const weight_vector& base, std::span<const probe> probes) override;

    /// Worker threads for estimate_probes (0 = all of the estimator's
    /// pool plus the caller, 1 = sequential). Results are independent of
    /// the setting.
    void set_threads(unsigned threads) override { threads_ = threads; }

    /// Disable the incremental path (full recompute per query) — the
    /// benchmark baseline for the PREPARE speedup.
    void set_incremental(bool on) { incremental_ = on; }

    /// Cost counters (cumulative since construction). The optimizer's
    /// efficiency tests assert on these: a saddle-escape probe must ride
    /// the incremental engine (engine_probes) instead of forcing another
    /// full analysis (engine_builds stays put), and warm-pool reuse in
    /// batch_session is assertable through pool_hits/pool_misses.
    struct counters {
        std::size_t engine_builds = 0;   ///< full cop_engine analyses
        std::size_t engine_probes = 0;   ///< probes answered incrementally
        std::size_t batched_moves = 0;   ///< multi-input transactions
        std::size_t full_estimates = 0;  ///< full-recompute estimate() calls
        std::size_t pool_hits = 0;       ///< checkouts served warm
        std::size_t pool_misses = 0;     ///< checkouts that built an engine
    };
    const counters& stats() const { return stats_; }

    /// The engine only pays off when input cones are small relative to
    /// the circuit (a full COP re-analysis over a warm view is a tight
    /// linear sweep that event-driven updates cannot beat on near-global
    /// cones — S2-like deep circuits). Circuits whose mean cone fraction
    /// exceeds this limit use the full-recompute path even in
    /// incremental mode. 1.0 forces the engine everywhere (benchmarks,
    /// equivalence tests).
    void set_engine_cone_limit(double limit) { engine_cone_limit_ = limit; }

    /// Share an externally compiled view (must be compiled with
    /// input_cones + driven_pins, outlive the estimator, and belong to
    /// every netlist later passed in — checked by revision stamp). The
    /// batch_session compiles each circuit once and hands the view to
    /// every estimator working on it.
    void adopt_view(const class circuit_view& cv);

    /// Share an externally owned engine pool (implies adopting its view).
    /// The pool must outlive the estimator; batch_session keeps one warm
    /// pool per circuit and hands it to every job's estimator, so engines
    /// built by one run() call serve the next — asserted via pool_hits.
    void adopt_pool(class engine_pool& pool);

private:
    const class circuit_view& ensure_view(const netlist& nl,
                                          bool engine_structures);
    class engine_pool& ensure_pool(const netlist& nl);
    bool engine_applies(const netlist& nl);
    void note_checkout(bool fresh) {
        if (fresh) {
            ++stats_.pool_misses;
            ++stats_.engine_builds;
        } else {
            ++stats_.pool_hits;
        }
    }
    std::vector<double> read_faults(const class cop_engine& engine,
                                    std::span<const fault> faults) const;
    unsigned shards(unsigned threads) const;

    thread_pool* workers_;
    bool incremental_ = true;
    unsigned threads_ = 1;
    double engine_cone_limit_ = 0.15;
    std::uint64_t cached_revision_ = 0;
    const class circuit_view* adopted_view_ = nullptr;
    std::unique_ptr<class circuit_view> view_;
    // Engines live in a pool (exec/engine_pool): the sequential paths
    // check one engine out per call and return it warm; parallel
    // ANALYSIS shards and PREPARE probe chunks check out one engine
    // each. A shared pool adopted from batch_session keeps engines warm
    // across estimator lifetimes; otherwise the estimator grows its own.
    class engine_pool* shared_pool_ = nullptr;
    std::unique_ptr<class engine_pool> own_pool_;
    counters stats_;
};

/// Exact estimator via BDD Boolean difference. Throws budget_exhausted when
/// the circuit exceeds the node budget.
///
/// The detection functions do not depend on the input probabilities, so
/// they are built once per (netlist, fault list) pair and reused across
/// estimate() calls — the optimizer re-estimates the same fault set under
/// hundreds of weight vectors.
class exact_detect_estimator final : public detect_estimator {
public:
    // Constructor and destructor are defined in detect.cpp, where
    // bdd_manager is a complete type (required by the unique_ptr member).
    explicit exact_detect_estimator(std::size_t node_limit = std::size_t{1}
                                                             << 22);
    ~exact_detect_estimator() override;
    std::string name() const override { return "exact-bdd"; }
    std::vector<double> estimate(const netlist& nl,
                                 const std::vector<fault>& faults,
                                 const weight_vector& weights) override;

private:
    void rebuild(const netlist& nl, const std::vector<fault>& faults);

    std::size_t node_limit_;
    // Cache of detection BDDs. Subset queries (the optimizer's PREPARE
    // passes ask about the hardest faults only) are answered from the
    // cached superset by lookup; a genuinely new fault triggers a rebuild
    // over the union. Keyed on the netlist's structural revision stamp.
    std::uint64_t cached_revision_ = 0;
    std::unordered_map<std::uint64_t, std::uint32_t> ref_by_fault_;
    std::unique_ptr<class bdd_manager> mgr_;
};

/// Monte-Carlo estimator: simulate `patterns` weighted patterns without
/// fault dropping and count per-fault detections.
class mc_detect_estimator final : public detect_estimator {
public:
    explicit mc_detect_estimator(std::uint64_t patterns = 4096,
                                 std::uint64_t seed = 0x5eed)
        : patterns_(patterns), seed_(seed) {}
    std::string name() const override { return "monte-carlo"; }
    std::vector<double> estimate(const netlist& nl,
                                 const std::vector<fault>& faults,
                                 const weight_vector& weights) override;

    /// Probe k draws its patterns from a private stream derived from
    /// (seed, probe index) — not from state shared across probes — so a
    /// batch gives the same answers whatever order or thread executes
    /// the probes.
    std::vector<std::vector<double>> estimate_probes(
        const netlist& nl, const std::vector<fault>& faults,
        const weight_vector& base, std::span<const probe> probes) override;

private:
    std::vector<double> estimate_seeded(const netlist& nl,
                                        const std::vector<fault>& faults,
                                        const weight_vector& weights,
                                        std::uint64_t seed) const;

    std::uint64_t patterns_;
    std::uint64_t seed_;
};

/// `workers` is the thread pool a cop estimator runs on (see
/// cop_detect_estimator); the other estimators ignore it.
std::unique_ptr<detect_estimator> make_estimator(
    const std::string& name, thread_pool* workers = nullptr);

}  // namespace wrpt
