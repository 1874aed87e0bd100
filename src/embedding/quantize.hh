/**
 * @file
 * Quantized payload transport kernels.
 *
 * FAFNIR's advantage is moving less data, yet the tree ships full fp32
 * payloads across every PE link and DRAM read. This layer provides the
 * opt-in compressed formats the transport path models:
 *
 *   - PayloadFormat::Fp32  — 4 bytes/element (the exact path).
 *   - PayloadFormat::Int8  — per-vector symmetric int8: one fp32 scale
 *     (pow2ceil(maxabs)/128 — a power of two) plus 1 byte/element,
 *     round-to-nearest-even.
 *   - PayloadFormat::TwoBit — per-vector ternary {-t, 0, +t} packed 4
 *     elements/byte plus one fp32 threshold (pow2ceil(maxabs)/2), after
 *     mxnet's two-bit gradient compressor. The stateless variant used
 *     on the transport path is a pure function of the vector
 *     (deterministic); the error-feedback variant (TwoBitState) carries
 *     the rounding residual across successive quantizations of the same
 *     stream and is what the accuracy sweep exercises.
 *
 * Scales are powers of two on purpose: dequantized int8 values carry at
 * most 7 mantissa bits and ternary values exactly 1, so fp32 partial
 * sums of round-tripped vectors are exact and therefore order-invariant
 * — the tree's meeting order, the root combine order, and a store-side
 * reference summing in query order all produce bit-identical results.
 *
 * Functional model: vectors are quantized once at the leaf (the rank
 * read that materializes them) and dequantized immediately; partials up
 * the tree stay exact fp32 over the dequantized leaves. That keeps the
 * compressed path's values a pure function of (store, format) — bit
 * deterministic across engines, replicas, shards, and prepare workers —
 * and pinnable against a store-side reference that round-trips the same
 * vectors. Per-hop requantization cost is charged in the byte/energy
 * model only (see PERFORMANCE.md "Quantized transport").
 *
 * Exactness contract: for finite inputs the AVX2 and scalar backends
 * produce bit-identical quantized codes and dequantized values — the
 * scale search is an exact max over |x|, the code is nearbyint(x/scale)
 * under round-to-nearest-even (the AVX2 cvtps rounding mode; computed
 * as a multiply by the exact reciprocal, which power-of-two scales
 * make bit-identical to the divide at multiply throughput), and
 * dequantization is one exact int→float convert plus one multiply.
 * test_quantize.cc pins scalar == dispatched for every format.
 */

#ifndef FAFNIR_EMBEDDING_QUANTIZE_HH
#define FAFNIR_EMBEDDING_QUANTIZE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "embedding/table.hh"

namespace fafnir::embedding
{

/** On-the-wire payload encoding for tree links and DRAM reads. */
enum class PayloadFormat : std::uint8_t
{
    Fp32 = 0,
    Int8 = 1,
    TwoBit = 2,
};

/** "fp32" / "int8" / "twobit". */
const char *payloadFormatName(PayloadFormat format);

/** Parse the --payload spelling; returns false on unknown names. */
bool parsePayloadFormat(const std::string &name, PayloadFormat &out);

/**
 * Modelled payload bytes for one @p dim -element vector: fp32 = 4*dim;
 * int8 = dim + 4 (scale); twobit = ceil(dim/4) + 4 (threshold).
 */
std::size_t payloadBytes(PayloadFormat format, std::size_t dim);

/** Name of the selected implementation: "avx2" or "scalar". */
const char *quantizeKernelBackend();

// ---- int8 (per-vector symmetric) --------------------------------------

/** max|src[i]| over [0, n) — the symmetric range of the vector. */
float absMax(const float *src, std::size_t n);

/**
 * Quantize @p src to int8 codes. scale = pow2ceil(absMax)/128 (0 for an
 * all-zero vector, every code 0); codes = nearbyint(src[i]/scale)
 * clamped to [-128, 127] — absMax/scale <= 128, so only elements in the
 * vector's peak band can touch the rails, clipping the positive rail by
 * at most one step. Returns the scale.
 */
float quantizeInt8(const float *src, std::size_t n, std::int8_t *codes);

/** dst[i] = codes[i] * scale. dst may alias the src of quantizeInt8. */
void dequantizeInt8(const std::int8_t *codes, std::size_t n, float scale,
                    float *dst);

// ---- two-bit (ternary, error-feedback optional) -----------------------

/** Packed two-bit size for @p n elements (4 codes/byte). */
inline std::size_t
twoBitPackedBytes(std::size_t n)
{
    return (n + 3) / 4;
}

/**
 * Stateless ternary quantization: threshold t = pow2ceil(absMax)/2;
 * code is +t for src[i] >= t, -t for src[i] <= -t, else 0. Codes pack
 * little-endian, 2 bits each (00 zero, 01 positive, 10 negative).
 * Returns the threshold.
 */
float quantizeTwoBit(const float *src, std::size_t n,
                     std::uint8_t *packed);

/** dst[i] = {+threshold, 0, -threshold} per packed code. */
void dequantizeTwoBit(const std::uint8_t *packed, std::size_t n,
                      float threshold, float *dst);

/**
 * Error-feedback residual for a stream of two-bit quantizations (mxnet
 * two_bit_quantize semantics): each round quantizes src + residual and
 * keeps the rounding error for the next round, so the quantization
 * error is fed back instead of lost. Order-dependent by construction —
 * runs using it must serialize (bench::clampParallelism names the
 * flag).
 */
struct TwoBitState
{
    Vector residual;

    /** Reset to a zero residual of dimension @p n. */
    void
    reset(std::size_t n)
    {
        residual.assign(n, 0.0f);
    }
};

/**
 * One error-feedback round: quantizes (src + state.residual) with the
 * stateless rule above, updates the residual to the rounding error, and
 * writes the dequantized values to @p dst (may alias @p src). Returns
 * the threshold used. state.residual must have size @p n.
 */
float quantizeTwoBitEf(const float *src, std::size_t n, TwoBitState &state,
                       float *dst);

// ---- transport round-trip ---------------------------------------------

/**
 * In-place quantize+dequantize of @p v under @p format — the value
 * transformation a leaf payload undergoes before entering the tree.
 * Fp32 is the identity. Pure and deterministic (stateless two-bit).
 */
void payloadRoundTrip(PayloadFormat format, float *v, std::size_t n);

/**
 * Store-side Sum reference for one query under @p format: every vector
 * round-trips the payload codec once, exactly as its leaf rank read
 * does, and the vectors then sum in query order (see the scale note
 * above for why that order matches the tree's).
 */
Vector quantizedReduce(PayloadFormat format, const EmbeddingStore &store,
                       const std::vector<IndexId> &indices);

} // namespace fafnir::embedding

#endif // FAFNIR_EMBEDDING_QUANTIZE_HH
