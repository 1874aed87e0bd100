/**
 * @file
 * Reduction-kernel implementations: scalar loops the compiler can
 * vectorize, plus hand-written AVX2 selected once at startup.
 */

#include "reduce_kernels.hh"

#include <algorithm>
#include <cmath>

#if defined(__x86_64__) || defined(__i386__)
#define FAFNIR_REDUCE_HAVE_AVX2 1
#include <immintrin.h>
#endif

namespace fafnir::embedding
{

namespace
{

using Fn2 = void (*)(float *, const float *, std::size_t);
using Fn3 = void (*)(float *, const float *, const float *, std::size_t);
using FnScale = void (*)(float *, std::size_t, float);

// ---- scalar backend ---------------------------------------------------
// One loop per operator: no per-element switch, so -O3 vectorizes these.

void
addSpan2Scalar(float *dst, const float *src, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = dst[i] + src[i];
}

void
minSpan2Scalar(float *dst, const float *src, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = std::min(dst[i], src[i]);
}

void
maxSpan2Scalar(float *dst, const float *src, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = std::max(dst[i], src[i]);
}

void
addSpan3Scalar(float *dst, const float *a, const float *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = a[i] + b[i];
}

void
minSpan3Scalar(float *dst, const float *a, const float *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = std::min(a[i], b[i]);
}

void
maxSpan3Scalar(float *dst, const float *a, const float *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = std::max(a[i], b[i]);
}

void
scaleSpanScalar(float *dst, std::size_t n, float divisor)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = dst[i] / divisor;
}

// ---- AVX2 backend -----------------------------------------------------
// std::min(a, b) is (b < a) ? b : a; _mm256_min_ps would instead return
// the second operand on ties and NaNs, so min/max use compare + blend
// to reproduce the scalar semantics bit for bit.

#ifdef FAFNIR_REDUCE_HAVE_AVX2

__attribute__((target("avx2"))) void
addSpan2Avx2(float *dst, const float *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 d = _mm256_loadu_ps(dst + i);
        const __m256 s = _mm256_loadu_ps(src + i);
        _mm256_storeu_ps(dst + i, _mm256_add_ps(d, s));
    }
    for (; i < n; ++i)
        dst[i] = dst[i] + src[i];
}

__attribute__((target("avx2"))) void
minSpan2Avx2(float *dst, const float *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 a = _mm256_loadu_ps(dst + i);
        const __m256 b = _mm256_loadu_ps(src + i);
        const __m256 pick_b = _mm256_cmp_ps(b, a, _CMP_LT_OQ);
        _mm256_storeu_ps(dst + i, _mm256_blendv_ps(a, b, pick_b));
    }
    for (; i < n; ++i)
        dst[i] = std::min(dst[i], src[i]);
}

__attribute__((target("avx2"))) void
maxSpan2Avx2(float *dst, const float *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 a = _mm256_loadu_ps(dst + i);
        const __m256 b = _mm256_loadu_ps(src + i);
        const __m256 pick_b = _mm256_cmp_ps(a, b, _CMP_LT_OQ);
        _mm256_storeu_ps(dst + i, _mm256_blendv_ps(a, b, pick_b));
    }
    for (; i < n; ++i)
        dst[i] = std::max(dst[i], src[i]);
}

__attribute__((target("avx2"))) void
addSpan3Avx2(float *dst, const float *a, const float *b, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 va = _mm256_loadu_ps(a + i);
        const __m256 vb = _mm256_loadu_ps(b + i);
        _mm256_storeu_ps(dst + i, _mm256_add_ps(va, vb));
    }
    for (; i < n; ++i)
        dst[i] = a[i] + b[i];
}

__attribute__((target("avx2"))) void
minSpan3Avx2(float *dst, const float *a, const float *b, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 va = _mm256_loadu_ps(a + i);
        const __m256 vb = _mm256_loadu_ps(b + i);
        const __m256 pick_b = _mm256_cmp_ps(vb, va, _CMP_LT_OQ);
        _mm256_storeu_ps(dst + i, _mm256_blendv_ps(va, vb, pick_b));
    }
    for (; i < n; ++i)
        dst[i] = std::min(a[i], b[i]);
}

__attribute__((target("avx2"))) void
maxSpan3Avx2(float *dst, const float *a, const float *b, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 va = _mm256_loadu_ps(a + i);
        const __m256 vb = _mm256_loadu_ps(b + i);
        const __m256 pick_b = _mm256_cmp_ps(va, vb, _CMP_LT_OQ);
        _mm256_storeu_ps(dst + i, _mm256_blendv_ps(va, vb, pick_b));
    }
    for (; i < n; ++i)
        dst[i] = std::max(a[i], b[i]);
}

__attribute__((target("avx2"))) void
scaleSpanAvx2(float *dst, std::size_t n, float divisor)
{
    const __m256 div = _mm256_set1_ps(divisor);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 d = _mm256_loadu_ps(dst + i);
        _mm256_storeu_ps(dst + i, _mm256_div_ps(d, div));
    }
    for (; i < n; ++i)
        dst[i] = dst[i] / divisor;
}

#endif // FAFNIR_REDUCE_HAVE_AVX2

struct Kernels
{
    Fn2 add2, min2, max2;
    Fn3 add3, min3, max3;
    FnScale scale;
    const char *backend;
};

Kernels
pickKernels()
{
#ifdef FAFNIR_REDUCE_HAVE_AVX2
    if (__builtin_cpu_supports("avx2")) {
        return {addSpan2Avx2, minSpan2Avx2, maxSpan2Avx2,
                addSpan3Avx2, minSpan3Avx2, maxSpan3Avx2,
                scaleSpanAvx2, "avx2"};
    }
#endif
    return {addSpan2Scalar, minSpan2Scalar, maxSpan2Scalar,
            addSpan3Scalar, minSpan3Scalar, maxSpan3Scalar,
            scaleSpanScalar, "scalar"};
}

const Kernels &
kernels()
{
    static const Kernels k = pickKernels();
    return k;
}

} // namespace

const char *
reduceKernelBackend()
{
    return kernels().backend;
}

void
combineSpan(ReduceOp op, float *dst, const float *src, std::size_t n)
{
    const Kernels &k = kernels();
    switch (op) {
      case ReduceOp::Sum:
      case ReduceOp::Mean:
        k.add2(dst, src, n);
        return;
      case ReduceOp::Min:
        k.min2(dst, src, n);
        return;
      case ReduceOp::Max:
        k.max2(dst, src, n);
        return;
    }
}

void
combineSpan(ReduceOp op, float *dst, const float *a, const float *b,
            std::size_t n)
{
    const Kernels &k = kernels();
    switch (op) {
      case ReduceOp::Sum:
      case ReduceOp::Mean:
        k.add3(dst, a, b, n);
        return;
      case ReduceOp::Min:
        k.min3(dst, a, b, n);
        return;
      case ReduceOp::Max:
        k.max3(dst, a, b, n);
        return;
    }
}

void
finalizeSpan(ReduceOp op, float *dst, std::size_t n, std::size_t count)
{
    if (op != ReduceOp::Mean || count == 0)
        return;
    kernels().scale(dst, n, static_cast<float>(count));
}

double
absDeltaSum(const float *a, const float *b, std::size_t n)
{
    double delta = 0.0;
    // Subtract in float, widen afterwards — the exact arithmetic the
    // solver loops used before this helper existed.
    for (std::size_t i = 0; i < n; ++i)
        delta += std::fabs(a[i] - b[i]);
    return delta;
}

} // namespace fafnir::embedding
