// Functional tests of the 74181-inspired ALU against its reference model.

#include "gen/alu.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "helpers.h"
#include "sim/logic_sim.h"
#include "util/error.h"
#include "util/rng.h"

namespace wrpt {
namespace {

using ::wrpt::testing::get_bit;
using ::wrpt::testing::get_bus;
using ::wrpt::testing::set_bit;
using ::wrpt::testing::set_bus;

// gtest names each case after the parameter's raw bytes, so the struct
// has no padding: the explicit zero tail keeps every byte, and with it
// every test name, independent of stack contents.
struct alu_mode {
    unsigned s;
    bool m;
    bool cin;
    std::uint16_t zero_tail = 0;
};
static_assert(sizeof(alu_mode) == 8, "alu_mode must have no padding");

class alu_modes : public ::testing::TestWithParam<alu_mode> {};

TEST_P(alu_modes, matches_reference_random_operands) {
    const alu_mode mode = GetParam();
    const unsigned s = mode.s;
    const bool m = mode.m;
    const bool cin = mode.cin;
    const std::size_t width = 8;
    const netlist nl = make_alu(width);
    rng rg(100 + s + (m ? 8 : 0) + (cin ? 16 : 0));
    for (int t = 0; t < 200; ++t) {
        std::uint64_t a = rg.next_word() & 0xff;
        std::uint64_t b = rg.next_word() & 0xff;
        if (t % 4 == 0) b = a;
        std::vector<bool> in(nl.input_count());
        set_bus(nl, in, "A", a, width);
        set_bus(nl, in, "B", b, width);
        set_bit(nl, in, "S0", (s & 1) != 0);
        set_bit(nl, in, "S1", (s & 2) != 0);
        set_bit(nl, in, "M", m);
        set_bit(nl, in, "CIN", cin);
        const auto out = evaluate(nl, in);
        const alu_verdict v = alu_reference(a, b, s, m, cin, width);
        EXPECT_EQ(get_bus(nl, out, "F", width), v.f)
            << "a=" << a << " b=" << b << " s=" << s << " m=" << m;
        EXPECT_EQ(get_bit(nl, out, "COUT"), v.carry_out);
        EXPECT_EQ(get_bit(nl, out, "AEQB"), v.a_eq_b);
        EXPECT_EQ(get_bit(nl, out, "ZERO"), v.zero);
    }
}

INSTANTIATE_TEST_SUITE_P(
    modes, alu_modes,
    ::testing::Values(alu_mode{0, false, false}, alu_mode{0, false, true},
                      alu_mode{1, false, false}, alu_mode{1, false, true},
                      alu_mode{2, false, false}, alu_mode{2, false, true},
                      alu_mode{3, false, false}, alu_mode{3, false, true},
                      alu_mode{0, true, false}, alu_mode{1, true, false},
                      alu_mode{2, true, false}, alu_mode{3, true, true}));

TEST(alu, exhaustive_2bit_all_modes) {
    const netlist nl = make_alu(2);
    for (std::uint64_t a = 0; a < 4; ++a)
        for (std::uint64_t b = 0; b < 4; ++b)
            for (unsigned s = 0; s < 4; ++s)
                for (int m = 0; m < 2; ++m)
                    for (int cin = 0; cin < 2; ++cin) {
                        std::vector<bool> in(nl.input_count());
                        set_bus(nl, in, "A", a, 2);
                        set_bus(nl, in, "B", b, 2);
                        set_bit(nl, in, "S0", (s & 1) != 0);
                        set_bit(nl, in, "S1", (s & 2) != 0);
                        set_bit(nl, in, "M", m != 0);
                        set_bit(nl, in, "CIN", cin != 0);
                        const auto out = evaluate(nl, in);
                        const alu_verdict v =
                            alu_reference(a, b, s, m != 0, cin != 0, 2);
                        ASSERT_EQ(get_bus(nl, out, "F", 2), v.f)
                            << a << "," << b << "," << s << "," << m << ","
                            << cin;
                        ASSERT_EQ(get_bit(nl, out, "COUT"), v.carry_out);
                    }
}

TEST(alu, subtraction_semantics) {
    // S=01, M=0, CIN=1 computes A - B exactly.
    const std::size_t width = 8;
    const netlist nl = make_alu(width);
    rng rg(55);
    for (int t = 0; t < 100; ++t) {
        const std::uint64_t a = rg.next_word() & 0xff;
        const std::uint64_t b = rg.next_word() & 0xff;
        std::vector<bool> in(nl.input_count());
        set_bus(nl, in, "A", a, width);
        set_bus(nl, in, "B", b, width);
        set_bit(nl, in, "S0", true);
        set_bit(nl, in, "S1", false);
        set_bit(nl, in, "M", false);
        set_bit(nl, in, "CIN", true);
        const auto out = evaluate(nl, in);
        EXPECT_EQ(get_bus(nl, out, "F", width), (a - b) & 0xff);
        // No borrow <=> a >= b (carry out of A + ~B + 1).
        EXPECT_EQ(get_bit(nl, out, "COUT"), a >= b);
    }
}

TEST(alu, group_pg_consistency_with_carry) {
    // For the arithmetic chain: carry_out == G_group OR (P_group AND cin).
    const std::size_t width = 6;
    const netlist nl = make_alu(width);
    rng rg(66);
    for (int t = 0; t < 300; ++t) {
        const std::uint64_t a = rg.next_word() & 0x3f;
        const std::uint64_t b = rg.next_word() & 0x3f;
        const unsigned s = static_cast<unsigned>(rg.next_below(4));
        const bool cin = rg.next_bool(0.5);
        std::vector<bool> in(nl.input_count());
        set_bus(nl, in, "A", a, width);
        set_bus(nl, in, "B", b, width);
        set_bit(nl, in, "S0", (s & 1) != 0);
        set_bit(nl, in, "S1", (s & 2) != 0);
        set_bit(nl, in, "M", false);
        set_bit(nl, in, "CIN", cin);
        const auto out = evaluate(nl, in);
        const bool cout = get_bit(nl, out, "COUT");
        const bool pg = get_bit(nl, out, "PG");
        const bool gg = get_bit(nl, out, "GG");
        EXPECT_EQ(cout, gg || (pg && cin));
    }
}

TEST(alu, width_bounds_checked) {
    EXPECT_THROW(make_alu(0), invalid_input);
    EXPECT_THROW(make_alu(33), invalid_input);
    EXPECT_NO_THROW(make_alu(1));
}

}  // namespace
}  // namespace wrpt
