// Tests for the single-variable MINIMIZE step (paper section 3.2,
// formula 15): Newton result vs dense scan, convexity, boundaries.

#include "opt/minimize.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/rng.h"

namespace wrpt {
namespace {

double j_at(const std::vector<affine_fault>& faults, double n, double y) {
    double j = 0.0;
    for (const auto& f : faults) j += std::exp(-n * (f.p0 + y * (f.p1 - f.p0)));
    return j;
}

class minimize_random : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(minimize_random, newton_matches_dense_scan) {
    rng r(GetParam());
    std::vector<affine_fault> faults;
    const std::size_t count = 1 + r.next_below(12);
    for (std::size_t i = 0; i < count; ++i) {
        affine_fault f;
        f.p0 = 0.002 * r.next_double();
        f.p1 = 0.002 * r.next_double();
        faults.push_back(f);
    }
    const double n = 500.0 + 5000.0 * r.next_double();
    const auto res = minimize_single_input(faults, n, 0.05, 0.95);

    // Dense scan reference.
    double best_y = 0.05, best_j = j_at(faults, n, 0.05);
    for (double y = 0.05; y <= 0.95 + 1e-12; y += 0.0005) {
        const double j = j_at(faults, n, y);
        if (j < best_j) {
            best_j = j;
            best_y = y;
        }
    }
    EXPECT_NEAR(res.y, best_y, 2e-3) << "seed " << GetParam();
    EXPECT_LE(j_at(faults, n, res.y), best_j * (1.0 + 1e-6));
}

TEST_P(minimize_random, objective_convex_along_y) {
    rng r(GetParam() + 100);
    std::vector<affine_fault> faults;
    for (int i = 0; i < 8; ++i)
        faults.push_back({0.01 * r.next_double(), 0.01 * r.next_double()});
    const double n = 1000.0;
    // Numeric second difference must be non-negative (Lemma 3).
    for (double y = 0.1; y <= 0.9; y += 0.05) {
        const double h = 1e-4;
        const double second =
            j_at(faults, n, y - h) - 2.0 * j_at(faults, n, y) +
            j_at(faults, n, y + h);
        EXPECT_GE(second, -1e-12) << "y=" << y;
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, minimize_random,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(minimize, boundary_minimum_low) {
    // All faults prefer y = 0 (p decreases with y? no: p1 < p0 means
    // raising y hurts, so minimum of J is at low y only if p grows with y).
    // Here detection improves as y falls: p(y) = 0.01 - 0.005 y.
    std::vector<affine_fault> faults{{0.01, 0.005}};
    const auto res = minimize_single_input(faults, 2000.0, 0.05, 0.95);
    EXPECT_DOUBLE_EQ(res.y, 0.05);
}

TEST(minimize, boundary_minimum_high) {
    std::vector<affine_fault> faults{{0.005, 0.01}};
    const auto res = minimize_single_input(faults, 2000.0, 0.05, 0.95);
    EXPECT_DOUBLE_EQ(res.y, 0.95);
}

TEST(minimize, interior_balance_of_two_conflicting_faults) {
    // Symmetric conflict: fault A wants y high, fault B wants y low, same
    // magnitudes; the unique minimum is the midpoint.
    std::vector<affine_fault> faults{{0.0, 0.01}, {0.01, 0.0}};
    const auto res = minimize_single_input(faults, 3000.0, 0.05, 0.95);
    EXPECT_NEAR(res.y, 0.5, 1e-6);
}

TEST(minimize, no_dependence_returns_midpoint) {
    // Flat terms (p1 == p0) travel as their smallest p0, not in the list;
    // with no sloped term left any y is optimal.
    const auto res = minimize_single_input({}, 100.0, 0.1, 0.9, 0.01);
    EXPECT_DOUBLE_EQ(res.y, 0.5);
}

TEST(minimize, empty_fault_set_returns_midpoint) {
    const auto res = minimize_single_input({}, 100.0, 0.0, 1.0);
    EXPECT_DOUBLE_EQ(res.y, 0.5);
}

TEST(minimize, survives_underflow_scale) {
    // N so large that every exp underflows: the scaled derivatives must
    // still find the right direction.
    std::vector<affine_fault> faults{{1e-6, 2e-5}, {3e-5, 1e-6}};
    const auto res = minimize_single_input(faults, 1e9, 0.05, 0.95);
    EXPECT_GT(res.y, 0.05);
    EXPECT_LT(res.y, 0.95);
    EXPECT_TRUE(std::isfinite(res.y));
}

// --- sloped list + flat floor vs the dense list -------------------------

/// Split a mixed list the way the MINIMIZE stage does: sloped terms keep
/// their relative order, flat ones reduce to their smallest p0.
minimize_result solve_split(const std::vector<affine_fault>& all, double n,
                            double lo, double hi) {
    std::vector<affine_fault> sloped;
    double flat_p0 = std::numeric_limits<double>::infinity();
    for (const auto& f : all) {
        if (f.p1 != f.p0)
            sloped.push_back(f);
        else
            flat_p0 = std::min(flat_p0, f.p0);
    }
    return minimize_single_input(sloped, n, lo, hi, flat_p0);
}

TEST(minimize, flat_floor_matches_all_terms_bit_for_bit) {
    // At least half of every list is flat, interleaved with the sloped
    // terms; N spans 1e2..1e9. Probabilities are mostly c / N with c in
    // [0, 60], so exponents are comparable and interior minima common,
    // and sometimes spread over [0, 0.01], where most terms underflow
    // against the smallest exponent. Either way the answer and the
    // Newton path must be the same doubles.
    rng r(0xf1a7);
    for (int c = 0; c < 2000; ++c) {
        const double n = std::pow(10.0, 2.0 + 7.0 * r.next_double());
        const bool spread = r.next_below(4) == 0;
        auto draw = [&] {
            return spread ? 0.01 * r.next_double() : 60.0 * r.next_double() / n;
        };
        const std::size_t count = 2 + r.next_below(40);
        const std::size_t sloped_count = 1 + r.next_below(count / 2);
        std::vector<affine_fault> all;
        for (std::size_t k = 0; k < count; ++k) {
            affine_fault f;
            f.p0 = draw();
            f.p1 = f.p0;
            all.insert(all.begin() + static_cast<std::ptrdiff_t>(
                                         r.next_below(all.size() + 1)),
                       f);
        }
        for (std::size_t k = 0; k < sloped_count; ++k) {
            affine_fault& f = all[r.next_below(count)];
            while (f.p1 == f.p0) f.p1 = draw();
        }

        const minimize_result dense = minimize_single_input(all, n, 0.05, 0.95);
        const minimize_result split = solve_split(all, n, 0.05, 0.95);
        EXPECT_EQ(split.y, dense.y) << "case " << c;
        EXPECT_EQ(split.iterations, dense.iterations) << "case " << c;
    }
}

TEST(minimize, flat_floor_holds_min_exponent_when_sloped_terms_underflow) {
    // The flat term's exponent (1e9 * 1e-9 = 1) is far below the sloped
    // ones (>= 1e3), so every sloped exp underflows once scaled by it and
    // J' reads as zero at lo. Dropping the flat term without its floor
    // would rescale by the sloped terms and find the interior balance of
    // the two conflicting faults instead.
    const std::vector<affine_fault> all{
        {1e-6, 2e-6}, {1e-9, 1e-9}, {2e-6, 1e-6}};
    const double n = 1e9;
    const minimize_result dense = minimize_single_input(all, n, 0.05, 0.95);
    const minimize_result split = solve_split(all, n, 0.05, 0.95);
    EXPECT_EQ(split.y, dense.y);
    EXPECT_EQ(split.iterations, dense.iterations);

    const std::vector<affine_fault> sloped_only{all[0], all[2]};
    const minimize_result no_floor =
        minimize_single_input(sloped_only, n, 0.05, 0.95);
    EXPECT_NE(no_floor.y, dense.y);
}

TEST(minimize, rejects_bad_interval) {
    std::vector<affine_fault> faults{{0.1, 0.2}};
    EXPECT_THROW(minimize_single_input(faults, 10.0, 0.9, 0.1), invalid_input);
    EXPECT_THROW(minimize_single_input(faults, 10.0, -0.1, 0.5), invalid_input);
    EXPECT_THROW(minimize_single_input(faults, -5.0, 0.1, 0.9), invalid_input);
}

}  // namespace
}  // namespace wrpt
