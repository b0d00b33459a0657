// Tests for the BIST substrate: LFSR maximal periods, weighted pattern
// generation, MISR signatures, full self-test sessions.

#include <bit>
#include <cmath>

#include <gtest/gtest.h>

#include "bist/lfsr.h"
#include "bist/misr.h"
#include "bist/session.h"
#include "bist/weightgen.h"
#include "gen/comparator.h"
#include "gen/interrupt.h"
#include "io/weights_io.h"
#include "fault/fault.h"
#include "util/error.h"

namespace wrpt {
namespace {

class lfsr_degrees : public ::testing::TestWithParam<unsigned> {};

TEST_P(lfsr_degrees, maximal_period) {
    const unsigned d = GetParam();
    lfsr g = lfsr::max_length(d, 1);
    EXPECT_EQ(g.measure_period(), (1ULL << d) - 1) << "degree " << d;
}

INSTANTIATE_TEST_SUITE_P(degrees, lfsr_degrees,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                           13, 14, 15, 16, 17, 18, 19, 20));

TEST(lfsr, output_stream_is_balanced) {
    lfsr g = lfsr::max_length(16, 0xace1);
    std::uint64_t ones = 0;
    const int n = 1 << 16;
    for (int i = 0; i < n; ++i)
        if (g.step()) ++ones;
    // An m-sequence of period 2^16-1 has 2^15 ones per period.
    EXPECT_NEAR(static_cast<double>(ones) / n, 0.5, 0.01);
}

TEST(lfsr, step_word_collects_bits_in_order) {
    lfsr a = lfsr::max_length(8, 0x5a);
    lfsr b = lfsr::max_length(8, 0x5a);
    const std::uint64_t w = a.step_word(16);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(((w >> i) & 1ULL) != 0, b.step()) << "bit " << i;
}

TEST(lfsr, invalid_configuration_rejected) {
    EXPECT_THROW(lfsr::max_length(1), invalid_input);
    EXPECT_THROW(lfsr::max_length(33), invalid_input);
    EXPECT_THROW(lfsr(8, lfsr::primitive_taps(8), 0), invalid_input);  // zero
    EXPECT_THROW(lfsr(8, 0x01, 1), invalid_input);  // no tap on last stage
}

TEST(weight_taps, realize_alphabet) {
    EXPECT_DOUBLE_EQ((weight_tap{1, false}).realized(), 0.5);
    EXPECT_DOUBLE_EQ((weight_tap{3, false}).realized(), 0.125);
    EXPECT_DOUBLE_EQ((weight_tap{3, true}).realized(), 0.875);
}

TEST(weight_taps, chosen_taps_minimize_error) {
    const weight_vector w{0.5, 0.1, 0.9, 0.05, 0.3};
    const auto taps = taps_for_weights(w, 5);
    ASSERT_EQ(taps.size(), w.size());
    for (std::size_t i = 0; i < w.size(); ++i) {
        // No alternative tap with up to 5 stages does better.
        const double err = std::abs(taps[i].realized() - w[i]);
        for (unsigned m = 1; m <= 5; ++m)
            for (bool o : {false, true})
                EXPECT_LE(err, std::abs((weight_tap{m, o}).realized() - w[i]) +
                                   1e-12);
    }
}

TEST(weighted_lfsr_source, empirical_frequencies_match_realized) {
    const weight_vector w{0.5, 0.125, 0.875, 0.25};
    lfsr gen = lfsr::max_length(24, 0xbeef);
    lfsr_pattern_source src(gen, taps_for_weights(w, 4));
    const weight_vector realized = src.realized_weights();
    std::vector<std::uint64_t> ones(w.size(), 0);
    std::vector<std::uint64_t> words;
    const int blocks = 1500;
    for (int b = 0; b < blocks; ++b) {
        src.next_block(words);
        for (std::size_t i = 0; i < w.size(); ++i)
            ones[i] += static_cast<std::uint64_t>(std::popcount(words[i]));
    }
    for (std::size_t i = 0; i < w.size(); ++i) {
        const double freq = static_cast<double>(ones[i]) / (64.0 * blocks);
        EXPECT_NEAR(freq, realized[i], 0.015) << "input " << i;
    }
}

TEST(misr_sig, deterministic_and_sensitive) {
    misr a(16), b(16);
    for (int i = 0; i < 100; ++i) {
        a.feed(static_cast<std::uint64_t>(i) * 2654435761u);
        b.feed(static_cast<std::uint64_t>(i) * 2654435761u);
    }
    EXPECT_EQ(a.signature(), b.signature());
    // A single flipped response bit changes the signature.
    misr c(16);
    for (int i = 0; i < 100; ++i) {
        std::uint64_t r = static_cast<std::uint64_t>(i) * 2654435761u;
        if (i == 50) r ^= 1;
        c.feed(r);
    }
    EXPECT_NE(a.signature(), c.signature());
    EXPECT_NEAR(a.aliasing_probability(), std::ldexp(1.0, -16), 1e-18);
}

TEST(misr_sig, feed_bits_folds_wide_responses) {
    misr m(4);
    std::vector<bool> resp(11, false);
    resp[0] = resp[4] = resp[8] = true;  // all fold onto cell 0: xor = 1
    m.feed_bits(resp);
    misr n(4);
    n.feed(1);
    EXPECT_EQ(m.signature(), n.signature());
}

TEST(bist_session, golden_signature_reproducible) {
    const netlist nl = make_interrupt_controller();
    bist_session_options opt;
    opt.patterns = 512;
    const weight_vector w = uniform_weights(nl);
    EXPECT_EQ(compute_golden_signature(nl, w, opt),
              compute_golden_signature(nl, w, opt));
}

TEST(bist_session, covers_most_faults_of_easy_circuit) {
    const netlist nl = make_interrupt_controller();
    const auto faults = generate_full_faults(nl);
    bist_session_options opt;
    opt.patterns = 2048;
    const auto res =
        run_bist_session(nl, faults, uniform_weights(nl), opt);
    EXPECT_EQ(res.patterns_applied, 2048u);
    EXPECT_EQ(res.faults_total, faults.size());
    EXPECT_GT(res.coverage_percent(), 90.0);
    EXPECT_LT(res.aliasing_probability, 1e-9);
}

TEST(bist_session, weighted_session_beats_uniform_on_comparator) {
    // Weights pushed toward matching operands (0.875 on both halves raises
    // per-bit equality probability) detect equality-chain faults that the
    // uniform session misses at this pattern budget.
    const netlist nl = make_cascaded_comparator(4, "cmp16");
    const auto faults = generate_full_faults(nl);
    bist_session_options opt;
    opt.patterns = 1024;
    const auto uniform =
        run_bist_session(nl, faults, uniform_weights(nl, 0.5), opt);
    const auto weighted =
        run_bist_session(nl, faults, uniform_weights(nl, 0.875), opt);
    EXPECT_GT(weighted.faults_detected, uniform.faults_detected);
}

TEST(threshold_source, arbitrary_weights_at_fine_resolution) {
    const weight_vector w{0.05, 0.37, 0.62, 0.95};
    const auto taps = thresholds_for_weights(w, 10);
    for (std::size_t i = 0; i < w.size(); ++i)
        EXPECT_NEAR(taps[i].realized(), w[i], 1.0 / 1024.0);

    lfsr gen = lfsr::max_length(24, 0x7e57);
    threshold_pattern_source src(gen, taps);
    std::vector<std::uint64_t> ones(w.size(), 0);
    std::vector<std::uint64_t> words;
    const int blocks = 1200;
    for (int b = 0; b < blocks; ++b) {
        src.next_block(words);
        for (std::size_t i = 0; i < w.size(); ++i)
            ones[i] += static_cast<std::uint64_t>(std::popcount(words[i]));
    }
    for (std::size_t i = 0; i < w.size(); ++i) {
        const double freq = static_cast<double>(ones[i]) / (64.0 * blocks);
        EXPECT_NEAR(freq, w[i], 0.02) << "input " << i;
    }
}

TEST(threshold_source, rejects_bad_configuration) {
    EXPECT_THROW(thresholds_for_weights({0.5}, 0), invalid_input);
    lfsr gen = lfsr::max_length(16, 1);
    std::vector<threshold_tap> bad{{8, 1u << 9}};
    EXPECT_THROW(threshold_pattern_source(gen, bad), invalid_input);
}

}  // namespace
}  // namespace wrpt
