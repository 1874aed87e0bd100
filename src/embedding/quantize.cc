/**
 * @file
 * Quantization-kernel implementations: scalar loops plus hand-written
 * AVX2 selected once at startup, sharing the reduce_kernels dispatch
 * idiom (and its exactness discipline: every backend bit-identical to
 * the scalar reference for finite inputs).
 */

#include "quantize.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "embedding/reduce_kernels.hh"

#if defined(__x86_64__) || defined(__i386__)
#define FAFNIR_QUANT_HAVE_AVX2 1
#include <immintrin.h>
#endif

namespace fafnir::embedding
{

namespace
{

using FnAbsMax = float (*)(const float *, std::size_t);
using FnQuant = void (*)(const float *, std::size_t, float, std::int8_t *);
using FnQuantFull = float (*)(const float *, std::size_t, std::int8_t *);
using FnDequant = void (*)(const std::int8_t *, std::size_t, float,
                           float *);

/**
 * int8 scale for a vector whose abs-max is @p peak (> 0, finite):
 * scale = pow2Ceil(peak) / 128 and its exact reciprocal, both by
 * exponent-field arithmetic — divides here sit on the per-vector
 * critical path between the abs-max pass and the quant pass and
 * dominate small-dim throughput. peak/scale <= 128, so codes live on
 * [-128, 127] with at most the peak band clipped one step (the 127
 * rail); the scalar clamp and the AVX2 pack saturation agree. The
 * mantissa round-up is the branchless carry trick: adding 0x007fffff
 * overflows into the exponent exactly when the mantissa is nonzero.
 */
inline float
int8ScaleFromPeak(float peak, float *inv_out)
{
    std::uint32_t bits;
    std::memcpy(&bits, &peak, sizeof bits);
    const std::uint32_t p2 = (bits + 0x007fffffu) & 0x7f800000u;
    const std::uint32_t scale_bits = p2 - (7u << 23);
    const std::uint32_t inv_bits = 0x82800000u - p2; // 2^(134 - e)
    float scale, inv;
    std::memcpy(&scale, &scale_bits, sizeof scale);
    std::memcpy(&inv, &inv_bits, sizeof inv);
    *inv_out = inv;
    return scale;
}

// ---- scalar backend ---------------------------------------------------

float
absMaxScalar(const float *src, std::size_t n)
{
    float m = 0.0f;
    for (std::size_t i = 0; i < n; ++i)
        m = std::max(m, std::fabs(src[i]));
    return m;
}

void
quantizeInt8Scalar(const float *src, std::size_t n, float inv_scale,
                   std::int8_t *codes)
{
    for (std::size_t i = 0; i < n; ++i) {
        // nearbyint under the default rounding mode is round-to-nearest-
        // even — the same rounding _mm256_cvtps_epi32 performs. The
        // reciprocal multiply is bit-identical to dividing by the scale
        // because scales are powers of two (exact reciprocal, exact
        // mantissa-preserving scaling) — and runs at multiply
        // throughput instead of divide throughput. The clamp matches
        // the AVX2 pack saturation ([-128, 127], asymmetric): only the
        // vector's peak band can reach the rails at all.
        int q = static_cast<int>(std::nearbyint(src[i] * inv_scale));
        q = std::clamp(q, -128, 127);
        codes[i] = static_cast<std::int8_t>(q);
    }
}

void
dequantizeInt8Scalar(const std::int8_t *codes, std::size_t n, float scale,
                     float *dst)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = static_cast<float>(codes[i]) * scale;
}

float
quantizeInt8FullScalar(const float *src, std::size_t n, std::int8_t *codes)
{
    const float peak = absMaxScalar(src, n);
    if (peak == 0.0f) {
        std::memset(codes, 0, n);
        return 0.0f;
    }
    float inv_scale;
    const float scale = int8ScaleFromPeak(peak, &inv_scale);
    quantizeInt8Scalar(src, n, inv_scale, codes);
    return scale;
}

// ---- AVX2 backend -----------------------------------------------------
// The divide, convert (round-to-nearest-even), and integer clamp mirror
// the scalar path operation for operation, so codes match bit for bit;
// abs-max is an exact order-invariant reduction over finite inputs.

#ifdef FAFNIR_QUANT_HAVE_AVX2

// The *Impl bodies are always_inline so quantizeInt8FullAvx2 can fuse
// both passes into one frame; the address-taken dispatch-table entries
// are thin wrappers below (an address-taken function itself cannot be
// always_inline).
__attribute__((target("avx2"), always_inline)) inline float
absMaxAvx2Impl(const float *src, std::size_t n)
{
    const __m256 sign = _mm256_set1_ps(-0.0f);
    // Four independent accumulators: a single max_ps chain is latency-
    // bound at one load per vmaxps latency, far below load throughput.
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        acc0 = _mm256_max_ps(acc0,
                             _mm256_andnot_ps(sign,
                                              _mm256_loadu_ps(src + i)));
        acc1 = _mm256_max_ps(
            acc1, _mm256_andnot_ps(sign, _mm256_loadu_ps(src + i + 8)));
        acc2 = _mm256_max_ps(
            acc2, _mm256_andnot_ps(sign, _mm256_loadu_ps(src + i + 16)));
        acc3 = _mm256_max_ps(
            acc3, _mm256_andnot_ps(sign, _mm256_loadu_ps(src + i + 24)));
    }
    for (; i + 8 <= n; i += 8)
        acc0 = _mm256_max_ps(acc0,
                             _mm256_andnot_ps(sign,
                                              _mm256_loadu_ps(src + i)));
    const __m256 acc = _mm256_max_ps(_mm256_max_ps(acc0, acc1),
                                     _mm256_max_ps(acc2, acc3));
    // Shuffle-based horizontal max: the scale computation waits on this
    // result every vector, so a store + scalar-reload reduce (store-
    // forwarding latency per lane) would sit on the critical path.
    __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(acc),
                           _mm256_extractf128_ps(acc, 1));
    m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
    m4 = _mm_max_ss(m4, _mm_shuffle_ps(m4, m4, 1));
    float m = _mm_cvtss_f32(m4);
    for (; i < n; ++i)
        m = std::max(m, std::fabs(src[i]));
    return m;
}

/**
 * 8 floats -> 8 int32 codes (inv_scale multiply, see scalar). No
 * explicit clamp: the scale construction bounds finite inputs to
 * [-128, 128] (pow2ceil(peak)/128 >= peak/128), and the int16/int8
 * packs below saturate to [-128, 127] — the same rails the scalar
 * clamp applies.
 */
__attribute__((target("avx2"))) inline __m256i
quantLanes(__m256 v, __m256 inv_scale)
{
    return _mm256_cvtps_epi32(_mm256_mul_ps(v, inv_scale));
}

__attribute__((target("avx2"), always_inline)) inline void
quantizeInt8Avx2Impl(const float *src, std::size_t n, float inv_scale,
                     std::int8_t *codes)
{
    const __m256 s = _mm256_set1_ps(inv_scale);
    std::size_t i = 0;
    // 32 floats -> 32 bytes per iteration: pack four int32x8 through
    // int16 to int8, then undo the lane interleave packs introduces.
    const __m256i perm = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    for (; i + 32 <= n; i += 32) {
        const __m256i a = quantLanes(_mm256_loadu_ps(src + i), s);
        const __m256i b = quantLanes(_mm256_loadu_ps(src + i + 8), s);
        const __m256i c = quantLanes(_mm256_loadu_ps(src + i + 16), s);
        const __m256i d = quantLanes(_mm256_loadu_ps(src + i + 24), s);
        const __m256i ab = _mm256_packs_epi32(a, b);
        const __m256i cd = _mm256_packs_epi32(c, d);
        const __m256i packed =
            _mm256_permutevar8x32_epi32(_mm256_packs_epi16(ab, cd), perm);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(codes + i),
                            packed);
    }
    for (; i < n; ++i) {
        int q = static_cast<int>(std::nearbyint(src[i] * inv_scale));
        q = std::clamp(q, -128, 127);
        codes[i] = static_cast<std::int8_t>(q);
    }
}

__attribute__((target("avx2"))) float
absMaxAvx2(const float *src, std::size_t n)
{
    return absMaxAvx2Impl(src, n);
}

__attribute__((target("avx2"))) void
quantizeInt8Avx2(const float *src, std::size_t n, float inv_scale,
                 std::int8_t *codes)
{
    quantizeInt8Avx2Impl(src, n, inv_scale, codes);
}

/**
 * The whole per-vector quantization in one dispatched call: fusing the
 * abs-max pass, the scale bit-math, and the quant pass into a single
 * target("avx2") function keeps the passes free to overlap across the
 * ABI boundary (separate calls clobber every ymm register and fence
 * with vzeroupper between the two loops over the same hot vector).
 */
__attribute__((target("avx2"))) float
quantizeInt8FullAvx2(const float *src, std::size_t n, std::int8_t *codes)
{
    const float peak = absMaxAvx2Impl(src, n);
    if (peak == 0.0f) {
        std::memset(codes, 0, n);
        return 0.0f;
    }
    float inv_scale;
    const float scale = int8ScaleFromPeak(peak, &inv_scale);
    quantizeInt8Avx2Impl(src, n, inv_scale, codes);
    return scale;
}

__attribute__((target("avx2"))) void
dequantizeInt8Avx2(const std::int8_t *codes, std::size_t n, float scale,
                   float *dst)
{
    const __m256 s = _mm256_set1_ps(scale);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128i bytes = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(codes + i));
        const __m256 v = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes));
        _mm256_storeu_ps(dst + i, _mm256_mul_ps(v, s));
    }
    for (; i < n; ++i)
        dst[i] = static_cast<float>(codes[i]) * scale;
}

#endif // FAFNIR_QUANT_HAVE_AVX2

struct QuantKernels
{
    FnAbsMax absMax;
    FnQuant quantInt8;
    FnQuantFull quantInt8Full;
    FnDequant dequantInt8;
    const char *backend;
};

QuantKernels
pickQuantKernels()
{
#ifdef FAFNIR_QUANT_HAVE_AVX2
    if (__builtin_cpu_supports("avx2")) {
        return {absMaxAvx2, quantizeInt8Avx2, quantizeInt8FullAvx2,
                dequantizeInt8Avx2, "avx2"};
    }
#endif
    return {absMaxScalar, quantizeInt8Scalar, quantizeInt8FullScalar,
            dequantizeInt8Scalar, "scalar"};
}

const QuantKernels &
quantKernels()
{
    static const QuantKernels k = pickQuantKernels();
    return k;
}

/**
 * Smallest power of two >= @p x (x > 0, finite). Scales and thresholds
 * are rounded up to a power of two so every dequantized value sits on a
 * low-mantissa grid (int8 codes have 7 mantissa bits, ternary values 1):
 * fp32 sums of round-tripped vectors are then exact and order-invariant,
 * which is what lets quantized tree values be pinned bit-for-bit against
 * a store-side reference that sums in a different order.
 */
inline float
pow2Ceil(float x)
{
    // Exponent-field manipulation instead of frexp/ldexp: this runs
    // once per quantized vector on the leaf path, and the libm calls
    // dominate the per-vector cost at transport-bench rates. Inputs
    // are normal, positive, finite (peaks of real payload vectors).
    std::uint32_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    const std::uint32_t exponent = bits & 0x7f800000u;
    if ((bits & 0x007fffffu) != 0u) {
        bits = exponent + 0x00800000u; // round mantissa up: next power
        float out;
        std::memcpy(&out, &bits, sizeof out);
        return out;
    }
    float out;
    std::memcpy(&out, &exponent, sizeof out);
    return out;
}

/** Ternary code of @p x under threshold @p t: 00 zero, 01 +t, 10 -t. */
inline unsigned
twoBitCode(float x, float t)
{
    if (x >= t)
        return 1u;
    if (x <= -t)
        return 2u;
    return 0u;
}

inline float
twoBitValue(unsigned code, float t)
{
    return code == 1u ? t : (code == 2u ? -t : 0.0f);
}

} // namespace

const char *
payloadFormatName(PayloadFormat format)
{
    switch (format) {
      case PayloadFormat::Fp32:
        return "fp32";
      case PayloadFormat::Int8:
        return "int8";
      case PayloadFormat::TwoBit:
        return "twobit";
    }
    return "fp32";
}

bool
parsePayloadFormat(const std::string &name, PayloadFormat &out)
{
    if (name == "fp32") {
        out = PayloadFormat::Fp32;
    } else if (name == "int8") {
        out = PayloadFormat::Int8;
    } else if (name == "twobit") {
        out = PayloadFormat::TwoBit;
    } else {
        return false;
    }
    return true;
}

std::size_t
payloadBytes(PayloadFormat format, std::size_t dim)
{
    switch (format) {
      case PayloadFormat::Fp32:
        return dim * sizeof(float);
      case PayloadFormat::Int8:
        return dim + sizeof(float);
      case PayloadFormat::TwoBit:
        return twoBitPackedBytes(dim) + sizeof(float);
    }
    return dim * sizeof(float);
}

const char *
quantizeKernelBackend()
{
    return quantKernels().backend;
}

float
absMax(const float *src, std::size_t n)
{
    return quantKernels().absMax(src, n);
}

float
quantizeInt8(const float *src, std::size_t n, std::int8_t *codes)
{
    return quantKernels().quantInt8Full(src, n, codes);
}

void
dequantizeInt8(const std::int8_t *codes, std::size_t n, float scale,
               float *dst)
{
    quantKernels().dequantInt8(codes, n, scale, dst);
}

float
quantizeTwoBit(const float *src, std::size_t n, std::uint8_t *packed)
{
    const float peak = quantKernels().absMax(src, n);
    std::memset(packed, 0, twoBitPackedBytes(n));
    if (peak == 0.0f)
        return 0.0f;
    const float t = pow2Ceil(peak) / 2.0f;
    for (std::size_t i = 0; i < n; ++i)
        packed[i >> 2] |= static_cast<std::uint8_t>(
            twoBitCode(src[i], t) << ((i & 3u) * 2u));
    return t;
}

void
dequantizeTwoBit(const std::uint8_t *packed, std::size_t n,
                 float threshold, float *dst)
{
    for (std::size_t i = 0; i < n; ++i) {
        const unsigned code = (packed[i >> 2] >> ((i & 3u) * 2u)) & 3u;
        dst[i] = twoBitValue(code, threshold);
    }
}

float
quantizeTwoBitEf(const float *src, std::size_t n, TwoBitState &state,
                 float *dst)
{
    FAFNIR_ASSERT(state.residual.size() == n,
                  "two-bit residual dimension mismatch: ",
                  state.residual.size(), " vs ", n);
    float *residual = state.residual.data();
    float peak = 0.0f;
    for (std::size_t i = 0; i < n; ++i)
        peak = std::max(peak, std::fabs(src[i] + residual[i]));
    const float t = peak == 0.0f ? 0.0f : pow2Ceil(peak) / 2.0f;
    for (std::size_t i = 0; i < n; ++i) {
        const float carried = src[i] + residual[i];
        const float q =
            t == 0.0f ? 0.0f : twoBitValue(twoBitCode(carried, t), t);
        residual[i] = carried - q;
        dst[i] = q;
    }
    return t;
}

void
payloadRoundTrip(PayloadFormat format, float *v, std::size_t n)
{
    if (format == PayloadFormat::Fp32 || n == 0)
        return;
    if (format == PayloadFormat::Int8) {
        // Reused per thread: the leaf path round-trips every rank read.
        thread_local std::vector<std::int8_t> codes;
        codes.resize(n);
        const float scale = quantizeInt8(v, n, codes.data());
        dequantizeInt8(codes.data(), n, scale, v);
        return;
    }
    thread_local std::vector<std::uint8_t> packed;
    packed.resize(twoBitPackedBytes(n));
    const float t = quantizeTwoBit(v, n, packed.data());
    dequantizeTwoBit(packed.data(), n, t, v);
}

Vector
quantizedReduce(PayloadFormat format, const EmbeddingStore &store,
                const std::vector<IndexId> &indices)
{
    Vector acc;
    for (IndexId idx : indices) {
        Vector v = store.vector(idx);
        payloadRoundTrip(format, v.data(), v.size());
        if (acc.empty())
            acc = std::move(v);
        else
            combineSpan(ReduceOp::Sum, acc.data(), v.data(), acc.size());
    }
    return acc;
}

} // namespace fafnir::embedding
