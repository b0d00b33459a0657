#include "opt/normalize.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "exec/thread_pool.h"
#include "util/error.h"

namespace wrpt {
namespace {

/// Cache of objective terms exp(-p_i * M) for one candidate M, evaluated
/// in doubling prefix windows. Window extension is the expensive part of
/// a J_M-vs-Q decision and is embarrassingly parallel, so large windows
/// are cut into fixed-size shards on the exec pool. The values are a
/// pure per-element function of (p_i, M) and the scan below consumes
/// them strictly left to right, so neither the window schedule nor the
/// thread count can change any result bit.
struct term_window {
    std::span<const double> sorted;
    const normalize_exec* exec;
    std::vector<double> terms;
    double m = 0.0;
    std::size_t ready = 0;

    void reset(double new_m) {
        m = new_m;
        ready = 0;
    }

    void extend_to(std::size_t need) {
        const std::size_t n = sorted.size();
        std::size_t target = ready == 0 ? 64 : ready * 2;
        target = std::clamp(target, need, std::max(need, n));
        if (target > n) target = n;
        if (terms.size() < target) terms.resize(target);
        const std::size_t begin = ready;
        const std::size_t count = target - begin;
        const std::size_t shard =
            exec ? std::max<std::size_t>(1, exec->shard) : 0;
        if (exec && exec->pool && exec->threads > 1 && count >= 2 * shard) {
            const std::size_t blocks = (count + shard - 1) / shard;
            exec->pool->parallel_for(blocks, [&](std::size_t b) {
                const std::size_t s = begin + b * shard;
                const std::size_t e = std::min(s + shard, target);
                for (std::size_t i = s; i < e; ++i)
                    terms[i] = std::exp(-sorted[i] * m);
            });
        } else {
            for (std::size_t i = begin; i < target; ++i)
                terms[i] = std::exp(-sorted[i] * m);
        }
        ready = target;
    }
};

/// Decide J_M vs Q using the paper's l/u bounds, touching as few of the
/// sorted probabilities as possible. Returns +1 if J_M > Q, -1 if
/// J_M <= Q; `z_out` receives the number of terms inspected (nf). The
/// reduction runs element-ordered over the cached terms.
int compare_jm_to_q(term_window& w, double m, double q, std::size_t& z_out) {
    const std::size_t n = w.sorted.size();
    w.reset(m);
    double l = 0.0;
    for (std::size_t z = 1; z <= n; ++z) {
        if (z > w.ready) w.extend_to(z);
        const double term = w.terms[z - 1];
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
    return normalize_sorted(sorted_probs, q, normalize_exec{});
}

normalize_result normalize_sorted(std::span<const double> sorted_probs,
                                  double q, const normalize_exec& exec) {
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

    term_window w{sorted_probs, &exec, {}, 0.0, 0};
    std::size_t z = 0;
    // J_0 = n: maybe no patterns are needed at all (degenerate q >= n).
    if (compare_jm_to_q(w, 0.0, q, z) < 0) {
        res.feasible = true;
        res.test_length = 0.0;
        res.relevant_faults = z;
        return res;
    }

    // Exponential growth then interval section (the paper's scheme).
    double lo = 0.0;
    double hi = 1.0;
    while (compare_jm_to_q(w, hi, q, z) > 0) {
        lo = hi;
        hi *= 2.0;
        require(hi < 1e300, "normalize: test length diverges");
    }
    while (hi - lo > std::max(0.5, hi * 1e-12)) {
        const double mid = lo + (hi - lo) / 2.0;
        if (compare_jm_to_q(w, mid, q, z) > 0)
            lo = mid;
        else
            hi = mid;
    }
    res.feasible = true;
    res.test_length = std::ceil(hi);
    (void)compare_jm_to_q(w, res.test_length, q, z);
    res.relevant_faults = z;
    return res;
}

normalize_result normalize_detection_probs(std::span<const double> probs,
                                           double q) {
    return normalize_detection_probs(probs, q, normalize_exec{});
}

normalize_result normalize_detection_probs(std::span<const double> probs,
                                           double q,
                                           const normalize_exec& exec) {
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
    normalize_result res = normalize_sorted(positive, q, exec);
    res.zero_prob_faults = zeros;
    return res;
}

}  // namespace wrpt
