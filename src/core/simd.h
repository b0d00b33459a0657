// Portable SIMD shim — the one place that knows which vector ISA this
// build carries and whether it is allowed to use it.
//
// The compute kernels (lane-blocked COP sweeps in prob/cop_kernels and
// the batched objective-term evaluator below) are written twice: a
// scalar reference — the original per-element code, kept as the semantic
// definition — and a lane-blocked variant that must be bit-identical to
// it. This header decides, once, which variant runs:
//
//   compile time   the widest ISA the build flags guarantee (WRPT_SIMD_*
//                  macros, lane width as a constant),
//   runtime        an AVX2 step-up on baseline x86-64 builds via
//                  function multiversioning (__builtin_cpu_supports),
//                  and a global force-scalar switch (WRPT_FORCE_SCALAR
//                  environment variable, or set_force_scalar() from
//                  tests) that routes every kernel to its reference.
//
// Building with -DWRPT_FORCE_SCALAR (the CI fallback leg) compiles the
// vector variants out entirely; the dispatch then always answers
// isa::scalar. Bit-identity holds because every lane performs exactly
// the per-element operation sequence of the scalar source expression —
// no FMA contraction, no reassociation, no fast-math — so the only
// difference is which elements share an instruction.

#pragma once

#include <cstddef>

// Compile-time tier: the widest vector extension the build flags let us
// emit unconditionally. WRPT_FORCE_SCALAR (a CMake option) wins over
// everything and strips the vector paths from the binary.
#if !defined(WRPT_FORCE_SCALAR)
#if defined(__AVX2__)
#define WRPT_SIMD_AVX2 1
#define WRPT_SIMD_SSE2 1
#elif defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64)
#define WRPT_SIMD_SSE2 1
#elif defined(__aarch64__) || defined(__ARM_NEON)
#define WRPT_SIMD_NEON 1
#endif
// Runtime AVX2 step-up for baseline x86 builds: kernels carry an extra
// __attribute__((target("avx2"))) version, selected per call when the
// CPU reports AVX2. Needs the GNU target attribute (GCC/clang).
#if defined(WRPT_SIMD_SSE2) && !defined(WRPT_SIMD_AVX2) && defined(__GNUC__)
#define WRPT_SIMD_AVX2_DISPATCH 1
#endif
#endif  // !WRPT_FORCE_SCALAR

namespace wrpt::simd {

enum class isa {
    scalar,  ///< reference loops, one element at a time
    sse2,    ///< 2 x double / 2 x u64 (x86-64 baseline)
    neon,    ///< 2 x double / 2 x u64 (aarch64 baseline)
    avx2,    ///< 4 x double / 4 x u64
};

/// Stable lowercase name ("scalar", "sse2", "neon", "avx2") — surfaced
/// in svc stats responses and serve startup output so benchmark rows are
/// attributable to the hardware they ran on.
const char* isa_name(isa i);

/// Doubles (equivalently 64-bit words) per vector register.
unsigned lane_width(isa i);

/// The widest ISA the compile flags guarantee without a CPU check.
isa compiled_isa();

/// The ISA the kernels will actually use right now: scalar when forced,
/// otherwise the compiled tier plus the runtime AVX2 step-up where the
/// CPU supports it. Cheap enough to call per sweep.
isa active_isa();

/// True when kernels must take their scalar reference path — set by the
/// WRPT_FORCE_SCALAR environment variable at startup or by
/// set_force_scalar() (tests toggle it around equivalence runs).
bool scalar_forced();
void set_force_scalar(bool force);

/// Batched objective terms: out[i] = std::exp(-x[i] * m) for i in [0,n).
/// The products are staged lane-blocked; each exponential is the same
/// std::exp call the scalar reference makes, so every element is
/// bit-identical to `out[i] = std::exp(-x[i] * m)` evaluated in a plain
/// loop (IEEE multiply is rounding-symmetric under sign flip, and the
/// reduction order is the caller's, untouched). `x` and `out` may alias
/// only if they are equal pointers.
void exp_neg_scale(const double* x, double m, double* out, std::size_t n);

}  // namespace wrpt::simd
