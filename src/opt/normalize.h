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

class thread_pool;

/// Indices of `probs` sorted by increasing probability (SORT); faults with
/// p <= 0 (proven or suspected undetectable) are excluded. Ties are held
/// in ascending index order (== stable sort).
std::vector<std::size_t> sort_faults(std::span<const double> probs);

/// Execution hints for the sharded NORMALIZE. The expensive part of one
/// J_M-vs-Q decision is the exp(-p_i * M) terms; they are evaluated in
/// prefix windows cut into fixed-size shards on the pool, and the l/u
/// bound scan then merges the cached terms in element order — the same
/// left-to-right reduction as the sequential path, so test_length and nf
/// are bit-identical for every thread count (threads only decide who
/// evaluates which shard).
struct normalize_exec {
    thread_pool* pool = nullptr;  ///< null = evaluate terms inline
    unsigned threads = 1;         ///< <=1 = sequential even with a pool
    /// Terms per shard; a fixed constant (never a function of the thread
    /// count). Shards below this size are not worth scheduling.
    std::size_t shard = 1024;
};

struct normalize_result {
    bool feasible = false;       ///< false if no finite N reaches Q
    double test_length = 0.0;    ///< minimal N with J_N <= Q
    std::size_t relevant_faults = 0;  ///< nf: hardest faults that matter
    std::size_t zero_prob_faults = 0; ///< excluded p<=0 faults
};

/// NORMALIZE over *sorted ascending* probabilities (including only p > 0;
/// use normalize_detection_probs for the raw-list convenience wrapper).
/// The `exec` overload shards the objective-term evaluation across the
/// pool; results are bit-identical to the sequential overload.
normalize_result normalize_sorted(std::span<const double> sorted_probs,
                                  double q);
normalize_result normalize_sorted(std::span<const double> sorted_probs,
                                  double q, const normalize_exec& exec);

/// Convenience: sorts internally and excludes p <= 0 faults (reported in
/// zero_prob_faults).
normalize_result normalize_detection_probs(std::span<const double> probs,
                                           double q);
normalize_result normalize_detection_probs(std::span<const double> probs,
                                           double q,
                                           const normalize_exec& exec);

}  // namespace wrpt
