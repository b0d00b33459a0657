// Tests for SORT and NORMALIZE (paper section 4): minimal test length
// against brute-force search, bound validity, relevant fault counts.

#include "opt/normalize.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "opt/objective.h"
#include "util/error.h"
#include "util/rng.h"

namespace wrpt {
namespace {

/// Brute-force minimal integer N with J_N <= q (linear scan).
double brute_force_n(const std::vector<double>& probs, double q) {
    for (double n = 0;; n += 1.0) {
        if (objective_jn(probs, n) <= q) return n;
        if (n > 1e7) return -1.0;
    }
}

TEST(sort_faults, ascending_and_excludes_zeros) {
    const std::vector<double> probs{0.5, 0.0, 0.1, 0.9, 0.0, 0.1};
    const auto order = sort_faults(probs);
    ASSERT_EQ(order.size(), 4u);
    for (std::size_t i = 1; i < order.size(); ++i)
        EXPECT_LE(probs[order[i - 1]], probs[order[i]]);
    EXPECT_EQ(order.front(), 2u);  // stable: first of the two 0.1 entries
}

// Heavy duplication: 40k faults over 97 distinct values, a few of them
// p <= 0. The order must be std::stable_sort's over the p > 0 entries.
TEST(sort_faults, matches_stable_sort_with_duplicates) {
    rng r(0x50f7);
    std::vector<double> probs(40000);
    for (auto& p : probs)
        p = (static_cast<double>(r.next_below(97)) - 3.0) / 97.0;

    std::vector<std::size_t> want;
    for (std::size_t i = 0; i < probs.size(); ++i)
        if (probs[i] > 0.0) want.push_back(i);
    ASSERT_LT(want.size(), probs.size());
    std::stable_sort(want.begin(), want.end(),
                     [&](std::size_t a, std::size_t b) {
                         return probs[a] < probs[b];
                     });
    EXPECT_EQ(want, sort_faults(probs));
}

class normalize_random : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(normalize_random, matches_brute_force) {
    rng r(GetParam());
    std::vector<double> probs;
    const std::size_t count = 3 + r.next_below(20);
    for (std::size_t i = 0; i < count; ++i)
        probs.push_back(std::pow(10.0, -1.0 - 3.0 * r.next_double()));
    std::sort(probs.begin(), probs.end());
    for (double q : {0.05, 0.01, 0.001}) {
        const auto res = normalize_sorted(probs, q);
        ASSERT_TRUE(res.feasible);
        const double ref = brute_force_n(probs, q);
        ASSERT_GE(ref, 0.0) << "brute force overflow";
        EXPECT_NEAR(res.test_length, ref, 1.0)
            << "q=" << q << " seed=" << GetParam();
        // N satisfies the target; N-2 must not (allowing the 1-off slack).
        EXPECT_LE(objective_jn(probs, res.test_length), q * (1.0 + 1e-9));
        if (res.test_length >= 2.0) {
            EXPECT_GT(objective_jn(probs, res.test_length - 2.0), q);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, normalize_random,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(normalize, relevant_faults_dominated_by_hard_tail) {
    // One very hard fault and many easy ones: nf should stay small — the
    // paper's efficiency observation (1).
    std::vector<double> probs{1e-6};
    for (int i = 0; i < 500; ++i) probs.push_back(0.4);
    const auto res = normalize_detection_probs(probs, 0.001);
    ASSERT_TRUE(res.feasible);
    EXPECT_LT(res.relevant_faults, 5u);
    // N is governed by the hard fault: N ~ ln(1/q)/1e-6.
    EXPECT_NEAR(res.test_length, std::log(1000.0) / 1e-6,
                0.05 * res.test_length);
}

TEST(normalize, zero_probabilities_reported) {
    const std::vector<double> probs{0.0, 0.5, 0.0, 0.2};
    const auto res = normalize_detection_probs(probs, 0.01);
    EXPECT_TRUE(res.feasible);
    EXPECT_EQ(res.zero_prob_faults, 2u);
}

TEST(normalize, infeasible_when_zero_prob_in_sorted_list) {
    const std::vector<double> probs{0.0, 0.5};
    const auto res = normalize_sorted(probs, 0.01);
    EXPECT_FALSE(res.feasible);
}

TEST(normalize, empty_list_needs_no_patterns) {
    const auto res = normalize_sorted(std::vector<double>{}, 0.01);
    EXPECT_TRUE(res.feasible);
    EXPECT_DOUBLE_EQ(res.test_length, 0.0);
}

TEST(normalize, degenerate_large_q) {
    // q above the fault count: J_0 = n <= q already.
    const std::vector<double> probs{0.1, 0.2};
    const auto res = normalize_sorted(probs, 5.0);
    EXPECT_TRUE(res.feasible);
    EXPECT_DOUBLE_EQ(res.test_length, 0.0);
}

TEST(normalize, rejects_unsorted_input) {
    const std::vector<double> probs{0.5, 0.1};
    EXPECT_THROW(normalize_sorted(probs, 0.01), invalid_input);
}

TEST(normalize, rejects_nonpositive_q) {
    const std::vector<double> probs{0.5};
    EXPECT_THROW(normalize_sorted(probs, 0.0), invalid_input);
}

TEST(normalize, table1_scale_magnitudes) {
    // A hardest fault at 2^-24 (the S1 equality chain) pushes N to the
    // 10^8 scale the paper reports in Table 1.
    std::vector<double> probs;
    probs.push_back(std::ldexp(1.0, -24));
    for (int i = 0; i < 1000; ++i) probs.push_back(0.2);
    const auto res = normalize_detection_probs(probs, confidence_to_q(0.999));
    ASSERT_TRUE(res.feasible);
    EXPECT_GT(res.test_length, 5e7);
    EXPECT_LT(res.test_length, 5e9);
}

}  // namespace
}  // namespace wrpt
