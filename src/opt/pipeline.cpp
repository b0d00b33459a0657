#include "opt/pipeline.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "opt/minimize.h"
#include "opt/objective.h"
#include "util/error.h"

namespace wrpt {
namespace {

double snap_to_grid(double y, double grid, double lo, double hi) {
    if (grid <= 0.0) return std::clamp(y, lo, hi);
    const double snapped = std::round(y / grid) * grid;
    return std::clamp(snapped, lo, hi);
}

/// NORMALIZE over (probabilities, sorted order). Pure: reads only its
/// arguments and cx.q.
normalize_result normalize_for(const optimize_context& cx,
                               const std::vector<double>& ps,
                               const std::vector<std::size_t>& ord) {
    std::vector<double> sorted;
    sorted.reserve(ord.size());
    for (std::size_t idx : ord) sorted.push_back(ps[idx]);
    return normalize_sorted(sorted, cx.q);
}

/// Select F^: everything whose objective term at the current N is within
/// exp(-window) of the hardest fault's term, floored at NORMALIZE's nf.
void select_hard(optimize_context& cx) {
    const double n = cx.n_new;
    cx.hard.clear();
    const double p_hardest = cx.probs[cx.order.front()];
    const double cutoff =
        (n > 0.0) ? p_hardest + cx.options.relevance_window / n
                  : std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < cx.order.size(); ++k) {
        if (cx.hard.size() >= cx.options.max_relevant_faults) break;
        const double p = cx.probs[cx.order[k]];
        if (p > cutoff &&
            cx.hard.size() >=
                std::max<std::size_t>(cx.norm.relevant_faults, 1))
            break;
        cx.hard.push_back(cx.faults[cx.order[k]]);
    }
}

}  // namespace

void analysis_stage::run(optimize_context& cx) {
    cx.probs = cx.analysis.estimate_faults(
        cx.nl, {cx.faults.data(), cx.faults.size()}, cx.res.weights,
        cx.options.threads);
    ++cx.res.analysis_calls;
}

void sort_stage::run(optimize_context& cx) {
    cx.order = sort_faults(cx.probs);
    cx.res.zero_prob_faults = cx.faults.size() - cx.order.size();
}

void normalize_stage::run(optimize_context& cx) {
    cx.norm = normalize_for(cx, cx.probs, cx.order);
}

void prepare_stage::run(optimize_context& cx) {
    // p_f at the two ends of the admissible interval for every coordinate
    // of the block, issued as one probe batch of 2 * block width at the
    // current vector. (For an exact estimator p_f is affine in x_i —
    // Lemma 1 — so any two points determine it; for analytic estimators
    // the secant over [weight_min, weight_max] is the better fit.) The
    // probe shape lets estimators with incremental state answer each in
    // O(fanout cone of input i) instead of O(nodes), and execute the
    // batch on concurrent pool engines. The block size is a fixed
    // constant — not a function of the thread count — so the optimized
    // weights are bit-identical for every thread count.
    const double lo = cx.options.weight_min;
    const double hi = cx.options.weight_max;
    cx.block_probes.clear();
    for (std::size_t i = cx.block_begin; i < cx.block_end; ++i) {
        cx.block_probes.push_back({{i, lo}});
        cx.block_probes.push_back({{i, hi}});
    }
    cx.prepared = cx.analysis.estimate_probes(cx.nl, cx.hard, cx.res.weights,
                                              cx.block_probes);
    cx.res.analysis_calls += cx.block_probes.size();
}

void minimize_stage::run(optimize_context& cx) {
    // Fit every coordinate's affine model at the common block base and
    // assign x_i := y, steps capped by the trust region. Coordinates
    // within a block move simultaneously (Jacobi); blocks see each
    // other's updates (Gauss-Seidel), which preserves the sequential
    // sweep's convergence on circuits with coupled inputs.
    // Flat terms (p1 == p0 after the fit) stay out of the solver's list
    // and reduce to their smallest p0, which keeps the solve
    // bit-identical to one over all of F^ (see minimize.cpp).
    const double lo = cx.options.weight_min;
    const double hi = cx.options.weight_max;
    std::vector<affine_fault> sloped;
    sloped.reserve(cx.hard.size());
    weight_vector stepped_weights = cx.res.weights;
    for (std::size_t i = cx.block_begin; i < cx.block_end; ++i) {
        const std::vector<double>& p_lo = cx.prepared[2 * (i - cx.block_begin)];
        const std::vector<double>& p_hi =
            cx.prepared[2 * (i - cx.block_begin) + 1];
        sloped.clear();
        double flat_p0 = std::numeric_limits<double>::infinity();
        bool any_dependence = false;
        for (std::size_t k = 0; k < cx.hard.size(); ++k) {
            const double slope = (p_hi[k] - p_lo[k]) / (hi - lo);
            const double at_zero = p_lo[k] - lo * slope;
            const affine_fault f{at_zero, at_zero + slope};
            if (f.p1 != f.p0)
                sloped.push_back(f);
            else
                flat_p0 = std::min(flat_p0, f.p0);
            if (std::abs(slope) > 1e-15) any_dependence = true;
        }
        // A coordinate none of the relevant faults depends on is left
        // alone (moving it to the midpoint would churn for nothing).
        if (!any_dependence) continue;

        const minimize_result m = minimize_single_input(
            sloped, cx.n_new, lo, hi, flat_p0);
        const double stepped =
            std::clamp(m.y, cx.res.weights[i] - cx.options.trust_step,
                       cx.res.weights[i] + cx.options.trust_step);
        stepped_weights[i] = snap_to_grid(stepped, cx.options.grid,
                                          cx.options.weight_min,
                                          cx.options.weight_max);
    }
    cx.res.weights = std::move(stepped_weights);
}

void saddle_escape_stage::run(optimize_context& cx) {
    // Converged or stalled. Coordinate descent stalls on symmetric
    // circuits: with the partner input at 0.5 an equality term is flat in
    // each single weight (a comparator at uniform weights, the E==F
    // comparator of a controller, ...), so the gradient vanishes without
    // being at an optimum. Probe deterministic perturbations of the
    // current point and, if one improves the test length, continue from
    // it.
    if (!cx.options.saddle_escape || cx.escaped || cx.res.history.empty()) {
        cx.stop = true;
        return;
    }
    cx.escaped = true;
    const double d = cx.options.saddle_perturbation;
    const weight_vector base = cx.res.weights;
    weight_vector best_cand;
    double best_cand_n = cx.n_new;
    std::vector<double> cand_probs;
    // Relative probes explore around the stalled point; the two absolute
    // matched-uniform probes jump straight into the "operands matched
    // high/low" basins that equality-dominated circuits need but
    // coordinate descent cannot reach once it has mismatched the
    // operands. The candidates are wholesale perturbations, but they are
    // still probes from the current point: one batch of multi-input
    // moves, answered by the estimator's incremental engines
    // (union-of-cones transactions with rollback) instead of five full
    // re-analyses or engine rebuilds.
    std::vector<weight_vector> cands(5);
    std::vector<probe> cand_probes(5);
    for (int dir = 0; dir < 5; ++dir) {
        weight_vector cand = base;
        for (std::size_t i = 0; i < cand.size(); ++i) {
            double value;
            switch (dir) {
                case 0: value = base[i] + d; break;
                case 1: value = base[i] - d; break;
                case 2:
                    value = base[i] + ((i % 2 == 0) ? d : -d);
                    break;
                case 3: value = 0.9; break;
                default: value = 0.1; break;
            }
            cand[i] = snap_to_grid(value, cx.options.grid,
                                   cx.options.weight_min,
                                   cx.options.weight_max);
        }
        cand_probes[dir] = probe_between(base, cand);
        cands[dir] = std::move(cand);
    }
    std::vector<std::vector<double>> cand_results =
        cx.analysis.estimate_probes(cx.nl, cx.faults, base, cand_probes);
    cx.res.analysis_calls += cand_probes.size();
    for (int dir = 0; dir < 5; ++dir) {
        std::vector<double>& p = cand_results[dir];
        const normalize_result cn =
            normalize_for(cx, p, sort_faults(p));
        if (cn.feasible && cn.test_length < best_cand_n) {
            best_cand_n = cn.test_length;
            best_cand = std::move(cands[dir]);
            cand_probs = std::move(p);
        }
    }
    if (best_cand.empty()) {  // no probe beats the current point
        cx.stop = true;
        return;
    }
    cx.res.weights = std::move(best_cand);
    cx.probs = std::move(cand_probs);
    cx.order = sort_faults(cx.probs);
    cx.norm = normalize_for(cx, cx.probs, cx.order);
    cx.n_old = std::numeric_limits<double>::infinity();
    cx.n_new = cx.norm.test_length;
    if (cx.n_new < cx.best_n) {
        cx.best_n = cx.n_new;
        cx.best_weights = cx.res.weights;
    }
}

optimize_pipeline::optimize_pipeline(const netlist& nl,
                                     const std::vector<fault>& faults,
                                     detect_estimator& analysis,
                                     const weight_vector& start,
                                     const optimize_options& options)
    : cx_(nl, faults, analysis, options,
          confidence_to_q(options.confidence)),
      stages_{&analysis_, &sort_, &normalize_, &prepare_, &minimize_,
              &saddle_} {
    require(start.size() == nl.input_count(),
            "optimize_weights: starting vector size mismatch");
    require(options.weight_min > 0.0 && options.weight_max < 1.0 &&
                options.weight_min < options.weight_max,
            "optimize_weights: weight bounds must satisfy 0 < min < max < 1");
    require(options.max_sweeps >= 1, "optimize_weights: max_sweeps >= 1");

    cx_.res.weights = start;
    for (double& w : cx_.res.weights)
        w = std::clamp(w, options.weight_min, options.weight_max);
}

void optimize_pipeline::run_analysis_block() {
    analysis_.run(cx_);
    sort_.run(cx_);
    normalize_.run(cx_);
}

optimize_result optimize_pipeline::run() {
    // ANALYSIS + SORT + NORMALIZE at the starting vector.
    run_analysis_block();
    cx_.res.feasible = cx_.norm.feasible;
    cx_.res.initial_test_length = cx_.norm.test_length;
    cx_.res.final_test_length = cx_.norm.test_length;
    if (!cx_.norm.feasible || cx_.order.empty()) return std::move(cx_.res);

    cx_.n_old = std::numeric_limits<double>::infinity();
    cx_.n_new = cx_.norm.test_length;
    cx_.best_weights = cx_.res.weights;
    cx_.best_n = cx_.n_new;

    std::size_t sweeps = 0;
    while (sweeps < cx_.options.max_sweeps) {
        if (cx_.n_old - cx_.n_new <= cx_.options.alpha) {
            saddle_.run(cx_);
            if (cx_.stop) break;
        }
        cx_.n_old = cx_.n_new;
        ++sweeps;

        select_hard(cx_);

        // PREPARE + MINIMIZE over fixed coordinate blocks (block-Jacobi /
        // Gauss-Seidel hybrid; see prepare_stage).
        const std::size_t block =
            std::max<std::size_t>(1, cx_.options.prepare_block);
        for (std::size_t b0 = 0; b0 < cx_.nl.input_count(); b0 += block) {
            cx_.block_begin = b0;
            cx_.block_end = std::min(b0 + block, cx_.nl.input_count());
            prepare_.run(cx_);
            minimize_.run(cx_);
        }

        // Re-ANALYSIS; the order of detection probabilities may have
        // changed (the paper's "caution"), so re-SORT and re-NORMALIZE.
        run_analysis_block();
        if (!cx_.norm.feasible || cx_.order.empty()) break;
        cx_.n_new = cx_.norm.test_length;
        cx_.res.history.push_back({cx_.n_new, cx_.norm.relevant_faults});
        if (cx_.n_new < cx_.best_n) {
            cx_.best_n = cx_.n_new;
            cx_.best_weights = cx_.res.weights;
        }
    }
    cx_.res.weights = cx_.best_weights;
    cx_.res.final_test_length = cx_.best_n;
    cx_.res.feasible = true;
    return std::move(cx_.res);
}

}  // namespace wrpt
