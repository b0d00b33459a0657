#include "prob/cop_kernels.h"

#include <cstdint>

#include "core/simd.h"
#include "prob/cop_rules.h"

#if defined(WRPT_SIMD_SSE2)
#include <immintrin.h>
#elif defined(WRPT_SIMD_NEON)
#include <arm_neon.h>
#endif

namespace wrpt::cop {

namespace {

// Each wrapper exposes the same five operations over one register type;
// the sweep template below is the only place that spells the COP
// expressions, so every ISA evaluates exactly the cop_algebra source
// text: and_: a*b, or_: (a+b) - a*b, xor_: (a+b) - (2.0*a)*b, root
// inversion 1.0 - acc. Gathers read lane j's index from the k-major
// matrix; scatters write lane j to p[nodes[j]].

#if defined(WRPT_SIMD_SSE2)

struct vec_sse2 {
    static constexpr std::uint32_t lanes = 2;
    using reg = __m128d;
    static reg set1(double v) { return _mm_set1_pd(v); }
    static reg gather(const double* base, const std::uint32_t* idx) {
        return _mm_set_pd(base[idx[1]], base[idx[0]]);
    }
    static void scatter(double* p, const node_id* nodes, reg v) {
        double tmp[lanes];
        _mm_storeu_pd(tmp, v);
        p[nodes[0]] = tmp[0];
        p[nodes[1]] = tmp[1];
    }
    static reg add(reg a, reg b) { return _mm_add_pd(a, b); }
    static reg sub(reg a, reg b) { return _mm_sub_pd(a, b); }
    static reg mul(reg a, reg b) { return _mm_mul_pd(a, b); }
};

#if defined(WRPT_SIMD_AVX2)
struct vec_avx2 {
    static constexpr std::uint32_t lanes = 4;
    using reg = __m256d;
    static reg set1(double v) { return _mm256_set1_pd(v); }
    static reg gather(const double* base, const std::uint32_t* idx) {
        return _mm256_set_pd(base[idx[3]], base[idx[2]], base[idx[1]],
                             base[idx[0]]);
    }
    static void scatter(double* p, const node_id* nodes, reg v) {
        double tmp[lanes];
        _mm256_storeu_pd(tmp, v);
        p[nodes[0]] = tmp[0];
        p[nodes[1]] = tmp[1];
        p[nodes[2]] = tmp[2];
        p[nodes[3]] = tmp[3];
    }
    static reg add(reg a, reg b) { return _mm256_add_pd(a, b); }
    static reg sub(reg a, reg b) { return _mm256_sub_pd(a, b); }
    static reg mul(reg a, reg b) { return _mm256_mul_pd(a, b); }
};
#endif  // WRPT_SIMD_AVX2

#elif defined(WRPT_SIMD_NEON)

struct vec_neon {
    static constexpr std::uint32_t lanes = 2;
    using reg = float64x2_t;
    static reg set1(double v) { return vdupq_n_f64(v); }
    static reg gather(const double* base, const std::uint32_t* idx) {
        const double tmp[lanes] = {base[idx[0]], base[idx[1]]};
        return vld1q_f64(tmp);
    }
    static void scatter(double* p, const node_id* nodes, reg v) {
        double tmp[lanes];
        vst1q_f64(tmp, v);
        p[nodes[0]] = tmp[0];
        p[nodes[1]] = tmp[1];
    }
    static reg add(reg a, reg b) { return vaddq_f64(a, b); }
    static reg sub(reg a, reg b) { return vsubq_f64(a, b); }
    static reg mul(reg a, reg b) { return vmulq_f64(a, b); }
};

#endif

#if defined(WRPT_SIMD_SSE2) || defined(WRPT_SIMD_NEON)

template <class V>
void sweep_lane_groups(const circuit_view& cv, std::span<const double> weights,
                       std::span<double> p) {
    double* const out = p.data();
    // Gathers read the same array being written: every fanin of a group
    // member lives at a strictly lower level, so its slot is final before
    // any lane of the group stores.
    const double* const src = out;
    for (const auto& g : cv.lane_groups()) {
        const node_id* nodes = cv.lane_nodes(g);
        const std::uint32_t n = g.count;
        switch (g.kind) {
            case gate_kind::input:
                for (std::uint32_t j = 0; j < n; ++j)
                    out[nodes[j]] = weights[cv.input_index(nodes[j])];
                continue;
            case gate_kind::const0:
                for (std::uint32_t j = 0; j < n; ++j) out[nodes[j]] = 0.0;
                continue;
            case gate_kind::const1:
                for (std::uint32_t j = 0; j < n; ++j) out[nodes[j]] = 1.0;
                continue;
            case gate_kind::buf: {
                const std::uint32_t* a = cv.lane_args(g);
                for (std::uint32_t j = 0; j < n; ++j)
                    out[nodes[j]] = src[a[j]];
                continue;
            }
            default:
                break;
        }
        const std::uint32_t* args = cv.lane_args(g);
        constexpr std::uint32_t L = V::lanes;
        const std::uint32_t vec_n = n - n % L;
        const typename V::reg one = V::set1(1.0);
        for (std::uint32_t j = 0; j < vec_n; j += L) {
            typename V::reg acc;
            switch (g.kind) {
                case gate_kind::not_:
                    acc = V::sub(one, V::gather(src, args + j));
                    break;
                case gate_kind::and_:
                case gate_kind::nand_:
                    acc = one;
                    for (std::uint32_t k = 0; k < g.arity; ++k)
                        acc = V::mul(acc, V::gather(src, args + k * n + j));
                    if (g.kind == gate_kind::nand_) acc = V::sub(one, acc);
                    break;
                case gate_kind::or_:
                case gate_kind::nor_:
                    acc = V::set1(0.0);
                    for (std::uint32_t k = 0; k < g.arity; ++k) {
                        const typename V::reg v =
                            V::gather(src, args + k * n + j);
                        acc = V::sub(V::add(acc, v), V::mul(acc, v));
                    }
                    if (g.kind == gate_kind::nor_) acc = V::sub(one, acc);
                    break;
                default:  // xor_/xnor_
                    acc = V::set1(0.0);
                    for (std::uint32_t k = 0; k < g.arity; ++k) {
                        const typename V::reg v =
                            V::gather(src, args + k * n + j);
                        acc = V::sub(V::add(acc, v),
                                     V::mul(V::mul(V::set1(2.0), acc), v));
                    }
                    if (g.kind == gate_kind::xnor_) acc = V::sub(one, acc);
                    break;
            }
            V::scatter(out, nodes + j, acc);
        }
        // Tail lanes (n % L) take the scalar reference rule.
        for (std::uint32_t j = vec_n; j < n; ++j)
            out[nodes[j]] = node_probability(cv, p, weights, nodes[j]);
    }
}

#endif  // WRPT_SIMD_SSE2 || WRPT_SIMD_NEON

#if defined(WRPT_SIMD_AVX2_DISPATCH)

// Runtime AVX2 step-up for baseline x86-64 builds. GCC's target
// attribute does not reliably propagate into template instantiations,
// so this is the one deliberate duplication of the sweep body: a plain
// function compiled for avx2, 4 lanes wide, same expressions.
__attribute__((target("avx2"))) void sweep_lane_groups_avx2(
    const circuit_view& cv, std::span<const double> weights,
    std::span<double> p) {
    double* const out = p.data();
    const double* const src = out;
    for (const auto& g : cv.lane_groups()) {
        const node_id* nodes = cv.lane_nodes(g);
        const std::uint32_t n = g.count;
        switch (g.kind) {
            case gate_kind::input:
                for (std::uint32_t j = 0; j < n; ++j)
                    out[nodes[j]] = weights[cv.input_index(nodes[j])];
                continue;
            case gate_kind::const0:
                for (std::uint32_t j = 0; j < n; ++j) out[nodes[j]] = 0.0;
                continue;
            case gate_kind::const1:
                for (std::uint32_t j = 0; j < n; ++j) out[nodes[j]] = 1.0;
                continue;
            case gate_kind::buf: {
                const std::uint32_t* a = cv.lane_args(g);
                for (std::uint32_t j = 0; j < n; ++j)
                    out[nodes[j]] = src[a[j]];
                continue;
            }
            default:
                break;
        }
        const std::uint32_t* args = cv.lane_args(g);
        constexpr std::uint32_t L = 4;
        const std::uint32_t vec_n = n - n % L;
        const __m256d one = _mm256_set1_pd(1.0);
// A lambda would not inherit the enclosing function's target("avx2"),
// so the gather is spelled as a macro.
#define WRPT_GATHER4(idx) \
    _mm256_set_pd(src[(idx)[3]], src[(idx)[2]], src[(idx)[1]], src[(idx)[0]])
        for (std::uint32_t j = 0; j < vec_n; j += L) {
            __m256d acc;
            switch (g.kind) {
                case gate_kind::not_:
                    acc = _mm256_sub_pd(one, WRPT_GATHER4(args + j));
                    break;
                case gate_kind::and_:
                case gate_kind::nand_:
                    acc = one;
                    for (std::uint32_t k = 0; k < g.arity; ++k)
                        acc = _mm256_mul_pd(acc, WRPT_GATHER4(args + k * n + j));
                    if (g.kind == gate_kind::nand_)
                        acc = _mm256_sub_pd(one, acc);
                    break;
                case gate_kind::or_:
                case gate_kind::nor_:
                    acc = _mm256_setzero_pd();
                    for (std::uint32_t k = 0; k < g.arity; ++k) {
                        const __m256d v = WRPT_GATHER4(args + k * n + j);
                        acc = _mm256_sub_pd(_mm256_add_pd(acc, v),
                                            _mm256_mul_pd(acc, v));
                    }
                    if (g.kind == gate_kind::nor_)
                        acc = _mm256_sub_pd(one, acc);
                    break;
                default:  // xor_/xnor_
                    acc = _mm256_setzero_pd();
                    for (std::uint32_t k = 0; k < g.arity; ++k) {
                        const __m256d v = WRPT_GATHER4(args + k * n + j);
                        acc = _mm256_sub_pd(
                            _mm256_add_pd(acc, v),
                            _mm256_mul_pd(
                                _mm256_mul_pd(_mm256_set1_pd(2.0), acc), v));
                    }
                    if (g.kind == gate_kind::xnor_)
                        acc = _mm256_sub_pd(one, acc);
                    break;
            }
            double tmp[L];
            _mm256_storeu_pd(tmp, acc);
            out[nodes[j]] = tmp[0];
            out[nodes[j + 1]] = tmp[1];
            out[nodes[j + 2]] = tmp[2];
            out[nodes[j + 3]] = tmp[3];
        }
#undef WRPT_GATHER4
        for (std::uint32_t j = vec_n; j < n; ++j)
            out[nodes[j]] = node_probability(cv, p, weights, nodes[j]);
    }
}

#endif  // WRPT_SIMD_AVX2_DISPATCH

}  // namespace

bool forward_sweep_vectorized(const circuit_view& cv,
                              [[maybe_unused]] std::span<const double> weights,
                              [[maybe_unused]] std::span<double> p) {
    if (!cv.has_lane_groups()) return false;
    if (simd::active_isa() == simd::isa::scalar) return false;
#if defined(WRPT_SIMD_AVX2)
    sweep_lane_groups<vec_avx2>(cv, weights, p);
    return true;
#elif defined(WRPT_SIMD_AVX2_DISPATCH)
    if (simd::active_isa() == simd::isa::avx2) {
        sweep_lane_groups_avx2(cv, weights, p);
        return true;
    }
    sweep_lane_groups<vec_sse2>(cv, weights, p);
    return true;
#elif defined(WRPT_SIMD_SSE2)
    sweep_lane_groups<vec_sse2>(cv, weights, p);
    return true;
#elif defined(WRPT_SIMD_NEON)
    sweep_lane_groups<vec_neon>(cv, weights, p);
    return true;
#else
    return false;
#endif
}

}  // namespace wrpt::cop
