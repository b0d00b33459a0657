// The staged OPTIMIZE pipeline — the paper's loop as explicit stage
// objects over a shared context.
//
// The paper prints OPTIMIZE as a fixed stage sequence:
//
//   ANALYSIS(X,F) -> SORT(F) -> NORMALIZE(N, nf)
//   while improving:  PREPARE -> MINIMIZE  (per coordinate block)
//                     ANALYSIS -> SORT -> NORMALIZE
//   stalled?          SADDLE_ESCAPE, then continue
//
// optimize_weights used to be one monolith; here every stage is an
// object that declares what it reads and writes on the shared
// optimize_context and can therefore be parallelized independently:
//
//   ANALYSIS    shards the fault list across pool engines
//               (detect_estimator::estimate_faults), bit-identical for
//               every thread count,
//   NORMALIZE   shards the objective-term evaluation (normalize_exec)
//               with an element-ordered reduction, equally bit-identical,
//   PREPARE     issues its probe batches to per-engine workers (the
//               PR-2 estimate_probes path),
//   SORT / MINIMIZE / SADDLE_ESCAPE stay sequential (cheap or
//               inherently serial), but run behind the same interface.
//
// The driver (optimize_pipeline) owns the context and the stage
// sequence; optimize_weights in optimizer.h is now a thin wrapper.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "fault/fault.h"
#include "io/weights_io.h"
#include "netlist/netlist.h"
#include "opt/normalize.h"
#include "opt/optimizer.h"
#include "prob/detect.h"
#include "prob/probe.h"

namespace wrpt {

/// Everything the stages share. Stages communicate exclusively through
/// this struct; the reads()/writes() declarations below name these
/// fields.
struct optimize_context {
    optimize_context(const netlist& nl_, const std::vector<fault>& faults_,
                     detect_estimator& analysis_,
                     const optimize_options& options_, double q_)
        : nl(nl_), faults(faults_), analysis(analysis_), options(options_),
          q(q_) {}

    // Immutable problem statement.
    const netlist& nl;
    const std::vector<fault>& faults;
    detect_estimator& analysis;
    const optimize_options options;  ///< a copy: callers may pass a temporary
    double q;                 ///< -ln(1 - confidence)
    normalize_exec exec{};    ///< sharding for ANALYSIS/NORMALIZE

    // Current iterate (res.weights is the live weight vector).
    optimize_result res;
    std::vector<double> probs;        ///< ANALYSIS output, by fault index
    std::vector<std::size_t> order;   ///< SORT output (ascending p, p>0)
    normalize_result norm;            ///< NORMALIZE output
    double n_old = 0.0;
    double n_new = 0.0;

    // Best iterate seen so far (a sweep on estimated affine models can
    // overshoot; the pipeline never returns worse than the best).
    weight_vector best_weights;
    double best_n = 0.0;

    // Sweep state.
    std::vector<fault> hard;          ///< F^ of the current sweep
    std::size_t block_begin = 0;      ///< coordinate block for PREPARE/
    std::size_t block_end = 0;        ///< MINIMIZE, [begin, end)
    std::vector<probe> block_probes;  ///< PREPARE's probes for the block
    std::vector<std::vector<double>> prepared;  ///< estimate_probes output
    bool escaped = false;             ///< saddle escape used up
    bool stop = false;                ///< a stage ended the optimization
};

/// One stage of the pipeline. reads()/writes() document the context
/// fields a stage touches — the contract that makes per-stage
/// parallelization safe to reason about.
class optimize_stage {
public:
    virtual ~optimize_stage() = default;
    virtual const char* name() const = 0;
    virtual const char* reads() const = 0;
    virtual const char* writes() const = 0;
    virtual void run(optimize_context& cx) = 0;
};

/// ANALYSIS: one detection probability per fault at the current weights,
/// sharded across pool engines.
class analysis_stage final : public optimize_stage {
public:
    const char* name() const override { return "ANALYSIS"; }
    const char* reads() const override { return "res.weights, faults"; }
    const char* writes() const override {
        return "probs, res.analysis_calls";
    }
    void run(optimize_context& cx) override;
};

/// SORT: detectable faults ordered by ascending probability.
class sort_stage final : public optimize_stage {
public:
    const char* name() const override { return "SORT"; }
    const char* reads() const override { return "probs"; }
    const char* writes() const override {
        return "order, res.zero_prob_faults";
    }
    void run(optimize_context& cx) override;
};

/// NORMALIZE: minimal N with J_N <= Q plus nf, objective terms sharded.
class normalize_stage final : public optimize_stage {
public:
    const char* name() const override { return "NORMALIZE"; }
    const char* reads() const override { return "probs, order, q, exec"; }
    const char* writes() const override { return "norm"; }
    void run(optimize_context& cx) override;
};

/// PREPARE: p_f at the two ends of the admissible interval for every
/// coordinate of the current block, issued as one probe batch.
class prepare_stage final : public optimize_stage {
public:
    const char* name() const override { return "PREPARE"; }
    const char* reads() const override {
        return "res.weights, hard, block_begin, block_end";
    }
    const char* writes() const override {
        return "block_probes, prepared, res.analysis_calls";
    }
    void run(optimize_context& cx) override;
};

/// MINIMIZE: fit the affine models from PREPARE and step the block's
/// coordinates simultaneously (trust region + grid snap). The fit splits
/// F^ per coordinate into sloped terms, which the Newton solve iterates
/// over, and flat ones (p1 == p0: faults outside the input's fanout
/// cone), which reduce to their smallest p0. Bit-identical to solving
/// over all of F^, at the cost of the cone instead of F^ per iteration.
class minimize_stage final : public optimize_stage {
public:
    const char* name() const override { return "MINIMIZE"; }
    const char* reads() const override {
        return "prepared, hard, n_new, block_begin, block_end";
    }
    const char* writes() const override { return "res.weights"; }
    void run(optimize_context& cx) override;
};

/// SADDLE_ESCAPE: on a stalled sweep, probe five deterministic wholesale
/// perturbations as multi-input moves on the existing engines and
/// continue from the best improving one; sets stop when none improves.
class saddle_escape_stage final : public optimize_stage {
public:
    const char* name() const override { return "SADDLE_ESCAPE"; }
    const char* reads() const override {
        return "res.weights, probs, n_new, options";
    }
    const char* writes() const override {
        return "res.weights, probs, order, norm, n_old, n_new, "
               "best_weights, best_n, escaped, stop";
    }
    void run(optimize_context& cx) override;
};

/// The driver: owns the context and the six stages, and runs the paper's
/// loop over them.
class optimize_pipeline {
public:
    optimize_pipeline(const netlist& nl, const std::vector<fault>& faults,
                      detect_estimator& analysis, const weight_vector& start,
                      const optimize_options& options);

    /// Run to convergence and return the result (consumes the iterate).
    optimize_result run();

    /// The stage sequence, in pipeline order — introspection for tests
    /// and docs.
    std::span<optimize_stage* const> stages() { return stages_; }

private:
    void run_analysis_block();  ///< ANALYSIS -> SORT -> NORMALIZE

    optimize_context cx_;
    analysis_stage analysis_;
    sort_stage sort_;
    normalize_stage normalize_;
    prepare_stage prepare_;
    minimize_stage minimize_;
    saddle_escape_stage saddle_;
    optimize_stage* stages_[6];
};

}  // namespace wrpt
