// OPTIMIZE (paper section 4): the full coordinate-descent procedure that
// computes one optimized probability per primary input.
//
// Loop structure as printed in the paper, with the PREPARE queries of one
// sweep batched:
//
//   X := starting vector
//   ANALYSIS(X,F); SORT(F); NORMALIZE(N_new, nf)
//   while (N_old - N_new) > alpha:
//       N_old := N_new
//       PREPARE(X, *, nf, F)              // all p_f(X,lo|i), p_f(X,hi|i)
//                                         // as one probe batch at X
//       for each input i:
//           MINIMIZE(F_0_1[i], N_new, y)  // guarded Newton, formula 15
//           x_i := y
//       ANALYSIS(X,F); SORT(F); NORMALIZE(N_new, nf)
//
// with the paper's two efficiency observations: only the nf hardest faults
// enter MINIMIZE, and PREPARE costs two testability analyses per input.
// Batching changes the sweep from Gauss-Seidel (each coordinate probed at
// the partially updated vector) to Jacobi (every coordinate's affine model
// fitted at the sweep base): all 2*|inputs| probes are independent given
// X, so the estimator can answer them incrementally and in parallel, and
// the result is bit-identical for every thread count. The trust region
// and best-iterate tracking keep the simultaneous update stable.
//
// The loop itself lives in opt/pipeline.h as explicit stage objects over
// a shared optimize_context — ANALYSIS and NORMALIZE shard across the
// exec/thread_pool (see optimize_options::threads), PREPARE batches onto
// pool engines, and every stage result is thread-count invariant.

#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.h"
#include "io/weights_io.h"
#include "netlist/netlist.h"
#include "prob/detect.h"

namespace wrpt {

struct optimize_options {
    double confidence = 0.999;  ///< random-test confidence delta
    /// Stop when a full sweep improves the test length by at most alpha
    /// (the paper's user-defined stopping parameter).
    double alpha = 0.0;
    std::size_t max_sweeps = 12;
    /// Optimized probabilities are confined to [weight_min, weight_max];
    /// 0/1 would make an input stuck-at fault undetectable (Lemma 2).
    double weight_min = 0.05;
    double weight_max = 0.95;
    /// Snap each optimized weight to a multiple of `grid` (the paper's
    /// appendix lists multiples of 0.05); 0 keeps continuous weights.
    double grid = 0.05;
    /// Cap on |F^| passed to MINIMIZE, guarding against degenerate
    /// normalizations.
    std::size_t max_relevant_faults = 2048;
    /// F^ contains every fault whose objective term is within
    /// exp(-relevance_window) of the hardest fault's term (at the current
    /// N), but at least the nf faults NORMALIZE reports. A generous window
    /// keeps MINIMIZE from over-fitting the single hardest fault.
    double relevance_window = 80.0;
    /// Symmetric circuits make the all-equal starting vector a stationary
    /// point of every coordinate (e.g. a comparator at 0.5: each equality
    /// term is flat in each single weight). When a sweep changes nothing,
    /// probe five deterministic perturbations (all +d, all -d, alternating
    /// +/-d, all 0.9, all 0.1) and continue from the best.
    bool saddle_escape = true;
    double saddle_perturbation = 0.1;
    /// Per-sweep trust region: a coordinate moves at most this far from its
    /// current value. The affine model (Lemma 1) is exact for exact
    /// detection probabilities but only a secant approximation for
    /// analytic estimators; capping the step keeps the sweep stable.
    double trust_step = 0.2;
    /// PREPARE batch width: probes for this many coordinates (2 probes
    /// each) are issued per estimate_probes call at the current vector,
    /// and the block's coordinates step simultaneously from the common
    /// base. Must be a constant independent of the thread count so
    /// optimized weights are thread-count invariant; large enough to keep
    /// per-thread engines busy, small enough that coupled inputs (a
    /// comparator's operand pairs) still see each other's moves between
    /// blocks. SIZE_MAX batches the whole sweep (pure Jacobi); 8 keeps
    /// the cascaded comparator's optimum within ~2% of the fully
    /// sequential sweep while still exposing 16 probes per batch.
    std::size_t prepare_block = 8;
    /// Worker threads for the sharded ANALYSIS and NORMALIZE stages
    /// (0 = one per hardware thread, 1 = sequential). Purely a
    /// performance knob: fault shards and objective-term shards are keyed
    /// by index and merged in a fixed order, so every stage result —
    /// weights, history, test lengths — is bit-identical for every value.
    /// (PREPARE's probe parallelism is the estimator's set_threads.)
    unsigned threads = 1;
};

struct sweep_record {
    double test_length = 0.0;
    std::size_t relevant_faults = 0;
};

struct optimize_result {
    weight_vector weights;            ///< optimized input probabilities
    double initial_test_length = 0.0; ///< N at the starting vector
    double final_test_length = 0.0;   ///< N at the optimized vector
    bool feasible = false;            ///< false if undetectable faults remain
    std::size_t zero_prob_faults = 0; ///< faults with p=0 under the estimator
    std::vector<sweep_record> history;///< N after each sweep
    std::size_t analysis_calls = 0;   ///< estimator invocations (cost model)
};

/// Run the optimizing procedure. `faults` should already exclude proven
/// redundancies (the paper assumes every fault of F is detectable); faults
/// the estimator scores 0 are excluded from NORMALIZE and reported.
///
/// This is a thin wrapper over the staged pipeline in opt/pipeline.h
/// (stage objects for ANALYSIS, SORT, NORMALIZE, PREPARE, MINIMIZE and
/// SADDLE_ESCAPE over a shared optimize_context).
optimize_result optimize_weights(const netlist& nl,
                                 const std::vector<fault>& faults,
                                 detect_estimator& analysis,
                                 const weight_vector& start,
                                 const optimize_options& options = {});

/// Convenience: ANALYSIS + NORMALIZE at fixed weights (no optimization) —
/// the "conventional test length" computation behind Table 1.
struct test_length_report {
    bool feasible = false;
    double test_length = 0.0;
    std::size_t relevant_faults = 0;
    std::size_t zero_prob_faults = 0;
    double hardest_probability = 0.0;
};
/// `threads` shards ANALYSIS (across pool engines) and NORMALIZE's
/// objective terms; the report is bit-identical for every thread count.
test_length_report required_test_length(const netlist& nl,
                                        const std::vector<fault>& faults,
                                        detect_estimator& analysis,
                                        const weight_vector& weights,
                                        double confidence = 0.999,
                                        unsigned threads = 1);

}  // namespace wrpt
