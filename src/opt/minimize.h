// MINIMIZE (paper section 3.2 / formula 15): one-dimensional minimization
// of the objective restricted to a single input probability.
//
// By Lemma 1 each exact detection probability is affine in a single input
// probability y:  p_f(X, y|i) = p_f(X,0|i) + y * (p_f(X,1|i) - p_f(X,0|i)).
// Hence J_N(X, y|i) = sum_f exp(-N (p0_f + y d_f)) is a sum of convex
// exponentials — strictly convex (Lemma 3) — and has a unique minimum in
// [lo, hi], found by a guarded Newton iteration on formula (15).
//
// Only the sloped terms (d_f != 0) shape that problem. A flat term
// (p1 == p0) is a constant of J: it adds exactly zero to J' and J'', and
// its one remaining role is to bound the exponent the derivatives are
// scaled by. So the solve takes the sloped terms as a list and the flat
// ones as a single scalar, the smallest flat p0. On wide circuits most of
// F^ lies outside an input's fanout cone, and the Newton loop then pays
// one exp per term in the cone instead of one per term of F^.

#pragma once

#include <cstddef>
#include <limits>
#include <span>

namespace wrpt {

/// Detection probability of one fault at the two endpoints of input i:
/// p0 = p_f(X, 0|i), p1 = p_f(X, 1|i).
struct affine_fault {
    double p0 = 0.0;
    double p1 = 0.0;
};

struct minimize_result {
    double y = 0.5;  ///< arg min of J_N(X, y|i) over [lo, hi]
    std::size_t iterations = 0;
};

/// Minimize J_N over y in [lo, hi] (0 <= lo < hi <= 1). n is the current
/// test length estimate N. `sloped` holds the terms that depend on the
/// input (p1 != p0); `flat_p0` is the smallest p0 among the flat terms
/// left out of it (+inf when there are none). While one sloped term
/// remains, moving flat terms from the list into `flat_p0` leaves the
/// result bit-identical (see minimize.cpp). Strict convexity guarantees
/// uniqueness whenever `sloped` is non-empty; otherwise any y is optimal
/// and the midpoint is returned.
minimize_result minimize_single_input(
    std::span<const affine_fault> sloped, double n, double lo, double hi,
    double flat_p0 = std::numeric_limits<double>::infinity());

}  // namespace wrpt
