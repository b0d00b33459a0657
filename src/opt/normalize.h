// SORT and NORMALIZE (paper section 4).
//
// NORMALIZE computes, from a sorted fault list, the minimum number N of
// random patterns satisfying J_N <= Q, together with nf = the number of
// "relevant" (hardest) faults that carry numerically meaningful weight in
// the objective — the key efficiency observation (1) of the paper: only
// the hardest detectable faults matter for the necessary test length.
//
// The implementation follows the paper's interval-section scheme over the
// bounds  l(z,M) = sum_{i<=z} exp(-p_i M)   (lower bound of J_M)
//         u(z,M) = l(z,M) + (n-z) exp(-p_z M)  (upper bound of J_M).

#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace wrpt {

/// Indices of `probs` sorted by increasing probability (SORT); faults with
/// p <= 0 (proven or suspected undetectable) are excluded. Ties are held
/// in ascending index order (== stable sort).
std::vector<std::size_t> sort_faults(std::span<const double> probs);

struct normalize_result {
    bool feasible = false;       ///< false if no finite N reaches Q
    double test_length = 0.0;    ///< minimal N with J_N <= Q
    std::size_t relevant_faults = 0;  ///< nf: hardest faults that matter
    std::size_t zero_prob_faults = 0; ///< excluded p<=0 faults
};

/// NORMALIZE over *sorted ascending* probabilities (including only p > 0;
/// use normalize_detection_probs for the raw-list convenience wrapper).
/// It runs on the caller's thread.
normalize_result normalize_sorted(std::span<const double> sorted_probs,
                                  double q);

/// Convenience: sorts internally and excludes p <= 0 faults (reported in
/// zero_prob_faults).
normalize_result normalize_detection_probs(std::span<const double> probs,
                                           double q);

}  // namespace wrpt
