#include "opt/minimize.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace wrpt {
namespace {

/// First and second derivative of J at y, scaled by exp(+min exponent) so
/// that the signs and the Newton ratio stay meaningful even when every raw
/// term underflows. d1/d2 are proportional to J' and J''.
struct derivatives {
    double d1 = 0.0;
    double d2 = 0.0;
};

// Dropping the flat terms and seeding min_e with n * flat_p0 computes the
// same doubles as the dense loop over every term (n > 0 here):
//  - A flat term has d == 0.0 exactly (p1 - p0 is zero only when p1 ==
//    p0), so it adds -0.0 to d1 and +0.0 to d2. Both are exact no-ops: d1
//    and d2 start at +0.0 and d2 only ever gains non-negative terms.
//  - Its exponent n * (p0 + y * 0.0) is exactly n * p0 for y in [0, 1]
//    (at p0 == ±0.0 it is a zero of either sign, and t is the same).
//  - Rounding is monotone, so min_f(n * p0_f) == n * min_f(p0_f). min_e is
//    therefore the same double — also when a flat term holds the smallest
//    exponent and every sloped t underflows — and so is every t, every
//    sum, and every Newton step taken from them.
derivatives scaled_derivatives(std::span<const affine_fault> sloped,
                               double n, double flat_p0, double y) {
    double min_e = n * flat_p0;
    for (const auto& f : sloped) {
        const double e = n * (f.p0 + y * (f.p1 - f.p0));
        min_e = std::min(min_e, e);
    }
    derivatives der;
    if (!std::isfinite(min_e)) return der;
    for (const auto& f : sloped) {
        const double d = f.p1 - f.p0;
        const double e = n * (f.p0 + y * d);
        const double t = std::exp(-(e - min_e));
        der.d1 += -n * d * t;
        der.d2 += n * n * d * d * t;
    }
    return der;
}

}  // namespace

minimize_result minimize_single_input(std::span<const affine_fault> sloped,
                                      double n, double lo, double hi,
                                      double flat_p0) {
    require(lo >= 0.0 && hi <= 1.0 && lo < hi,
            "minimize_single_input: invalid interval");
    require(n >= 0.0, "minimize_single_input: negative test length");

    minimize_result res;
    if (sloped.empty() || n == 0.0) {
        res.y = lo + (hi - lo) / 2.0;
        return res;
    }

    // Boundary minima: J is convex, so the sign of J' at the ends decides.
    if (scaled_derivatives(sloped, n, flat_p0, lo).d1 >= 0.0) {
        res.y = lo;
        return res;
    }
    if (scaled_derivatives(sloped, n, flat_p0, hi).d1 <= 0.0) {
        res.y = hi;
        return res;
    }

    // Interior minimum: guarded Newton (formula 15) with a shrinking
    // bracket [a, b] where J'(a) < 0 < J'(b).
    double a = lo, b = hi;
    double y = lo + (hi - lo) / 2.0;
    for (std::size_t it = 0; it < 200; ++it) {
        ++res.iterations;
        const derivatives der = scaled_derivatives(sloped, n, flat_p0, y);
        if (der.d1 < 0.0)
            a = y;
        else
            b = y;
        double next;
        if (der.d2 > 0.0 && std::isfinite(der.d1)) {
            next = y - der.d1 / der.d2;  // formula (15)
            if (!(next > a && next < b)) next = a + (b - a) / 2.0;
        } else {
            next = a + (b - a) / 2.0;
        }
        if (std::abs(next - y) < 1e-12 || (b - a) < 1e-10) {
            y = next;
            break;
        }
        y = next;
    }
    res.y = std::clamp(y, lo, hi);
    return res;
}

}  // namespace wrpt
