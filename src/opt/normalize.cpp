#include "opt/normalize.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace wrpt {
namespace {

/// Decide J_M vs Q using the paper's l/u bounds, touching as few of the
/// sorted probabilities as possible. Returns +1 if J_M > Q, -1 if
/// J_M <= Q; `z_out` receives the number of terms inspected (nf). The
/// terms exp(-p_i * M) are summed strictly left to right.
int compare_jm_to_q(std::span<const double> sorted, double m, double q,
                    std::size_t& z_out) {
    const std::size_t n = sorted.size();
    double l = 0.0;
    for (std::size_t z = 1; z <= n; ++z) {
        const double term = std::exp(-sorted[z - 1] * m);
        l += term;
        if (l > q) {
            z_out = z;
            return +1;
        }
        const double u = l + static_cast<double>(n - z) * term;
        if (u <= q) {
            z_out = z;
            return -1;
        }
    }
    z_out = n;
    return l > q ? +1 : -1;
}

}  // namespace

std::vector<std::size_t> sort_faults(std::span<const double> probs) {
    std::vector<std::size_t> order;
    order.reserve(probs.size());
    for (std::size_t i = 0; i < probs.size(); ++i)
        if (probs[i] > 0.0) order.push_back(i);
    // Ties broken by index make the order a strict total one, so plain
    // std::sort yields the unique permutation — exactly std::stable_sort's
    // for candidates collected in ascending index order.
    std::sort(order.begin(), order.end(),
              [&probs](std::size_t a, std::size_t b) {
                  if (probs[a] != probs[b]) return probs[a] < probs[b];
                  return a < b;
              });
    return order;
}

normalize_result normalize_sorted(std::span<const double> sorted_probs,
                                  double q) {
    require(q > 0.0, "normalize: q must be positive");
    normalize_result res;
    for (std::size_t i = 1; i < sorted_probs.size(); ++i)
        require(sorted_probs[i - 1] <= sorted_probs[i],
                "normalize_sorted: probabilities not ascending");

    if (sorted_probs.empty()) {
        res.feasible = true;
        res.test_length = 0.0;
        return res;
    }
    if (sorted_probs.front() <= 0.0) {
        res.feasible = false;  // undetectable fault in the list
        return res;
    }

    std::size_t z = 0;
    // J_0 = n: maybe no patterns are needed at all (degenerate q >= n).
    if (compare_jm_to_q(sorted_probs, 0.0, q, z) < 0) {
        res.feasible = true;
        res.test_length = 0.0;
        res.relevant_faults = z;
        return res;
    }

    // Exponential growth then interval section (the paper's scheme).
    double lo = 0.0;
    double hi = 1.0;
    while (compare_jm_to_q(sorted_probs, hi, q, z) > 0) {
        lo = hi;
        hi *= 2.0;
        require(hi < 1e300, "normalize: test length diverges");
    }
    while (hi - lo > std::max(0.5, hi * 1e-12)) {
        const double mid = lo + (hi - lo) / 2.0;
        if (compare_jm_to_q(sorted_probs, mid, q, z) > 0)
            lo = mid;
        else
            hi = mid;
    }
    res.feasible = true;
    res.test_length = std::ceil(hi);
    (void)compare_jm_to_q(sorted_probs, res.test_length, q, z);
    res.relevant_faults = z;
    return res;
}

normalize_result normalize_detection_probs(std::span<const double> probs,
                                           double q) {
    std::vector<double> positive;
    positive.reserve(probs.size());
    std::size_t zeros = 0;
    for (double p : probs) {
        if (p > 0.0)
            positive.push_back(p);
        else
            ++zeros;
    }
    std::sort(positive.begin(), positive.end());
    normalize_result res = normalize_sorted(positive, q);
    res.zero_prob_faults = zeros;
    return res;
}

}  // namespace wrpt
