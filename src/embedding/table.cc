/**
 * @file
 * The store's row generator and the reference gather-reduce.
 *
 * fill() evaluates element()'s hash over a whole row in closed form.
 * With a 32-bit index i and an element e < 2^20, the hash input
 * h0 = (i << 20) | e has h0 >> 33 = i >> 13, so its first mix step is
 * h1 = b ^ e with b = (i << 20) ^ (i >> 13), fixed per row. For
 * e = 8j + r (r < 8), b ^ e = ((b ^ 8j) & ~7) + ((b & 7) ^ r), and the
 * multiply distributes over that sum modulo 2^64:
 * h1 * K = H_j + L_r with H_j = ((b ^ 8j) & ~7) * K and
 * L_r = ((b & 7) ^ r) * K. So a row costs one 64-bit multiply per
 * eight elements plus eight per row, and the lanes need only 64-bit
 * add, shift, xor and and. The value is an integer below 1024, which
 * converts to float exactly; scaling by 1/16 is exact too, so the
 * vector path reproduces element()'s bits. An AVX2 kernel, picked once
 * at startup, writes the whole groups of eight; element() writes the
 * dim % 8 tail, and the whole row where AVX2 is missing.
 */

#include "table.hh"

#include <cmath>
#include <cstddef>

#include "embedding/reduce_kernels.hh"

#if defined(__x86_64__) || defined(__i386__)
#define FAFNIR_TABLE_HAVE_AVX2 1
#include <immintrin.h>
#endif

namespace fafnir::embedding
{

#ifdef FAFNIR_TABLE_HAVE_AVX2

namespace
{

/**
 * Write elements [0, 8 * groups) of the row whose per-row hash term is
 * @p base (b above), under multiplier @p mul.
 */
__attribute__((target("avx2"))) void
fillGroupsAvx2(std::uint64_t base, std::uint64_t mul, float *row,
               std::size_t groups)
{
    // One register holds the even offsets r = 0, 2, 4, 6, the other
    // the odd ones, so a 32-bit blend of the two puts the eight values
    // back in element order.
    const std::uint64_t low = base & 7;
    const auto term = [&](std::uint64_t r) {
        return static_cast<long long>((low ^ r) * mul);
    };
    const __m256i even = _mm256_setr_epi64x(term(0), term(2), term(4),
                                            term(6));
    const __m256i odd = _mm256_setr_epi64x(term(1), term(3), term(5),
                                           term(7));
    const __m256i mask = _mm256_set1_epi32(1023);
    const __m256 sixteenth = _mm256_set1_ps(1.0f / 16.0f);
    const std::uint64_t high = base & ~std::uint64_t(7);
    for (std::size_t j = 0; j < groups; ++j) {
        const __m256i h = _mm256_set1_epi64x(
            static_cast<long long>((high ^ (8 * j)) * mul));
        __m256i h_even = _mm256_add_epi64(h, even);
        __m256i h_odd = _mm256_add_epi64(h, odd);
        h_even = _mm256_xor_si256(h_even, _mm256_srli_epi64(h_even, 33));
        h_odd = _mm256_xor_si256(h_odd, _mm256_srli_epi64(h_odd, 33));
        const __m256i k = _mm256_and_si256(
            _mm256_blend_epi32(h_even, _mm256_slli_epi64(h_odd, 32), 0xaa),
            mask);
        _mm256_storeu_ps(row + 8 * j,
                         _mm256_mul_ps(_mm256_cvtepi32_ps(k), sixteenth));
    }
}

} // namespace

#endif // FAFNIR_TABLE_HAVE_AVX2

void
EmbeddingStore::fill(IndexId index, std::span<float> row) const
{
    FAFNIR_ASSERT(row.size() == config_.dim(), "filling ", row.size(),
                  " elements of a ", config_.dim(), "-element vector");
    std::size_t done = 0;
#ifdef FAFNIR_TABLE_HAVE_AVX2
    static const bool avx2 = __builtin_cpu_supports("avx2");
    if (avx2) {
        const std::uint64_t i = index;
        fillGroupsAvx2((i << 20) ^ (i >> 13), kHashMultiplier, row.data(),
                       row.size() / 8);
        done = row.size() - row.size() % 8;
    }
#endif
    for (std::size_t e = done; e < row.size(); ++e)
        row[e] = element(index, static_cast<unsigned>(e));
}

Vector
EmbeddingStore::vector(IndexId index) const
{
    Vector v(config_.dim());
    fill(index, v);
    return v;
}

Vector
EmbeddingStore::reduce(const std::vector<IndexId> &indices,
                       ReduceOp op) const
{
    FAFNIR_ASSERT(!indices.empty(), "reducing an empty query");
    Vector acc = vector(indices.front());
    Vector row(config_.dim());
    for (std::size_t i = 1; i < indices.size(); ++i) {
        fill(indices[i], row);
        combineSpan(op, acc.data(), row.data(), acc.size());
    }
    finalizeSpan(op, acc.data(), acc.size(), indices.size());
    return acc;
}

std::vector<Vector>
EmbeddingStore::reduceBatch(const Batch &batch, ReduceOp op) const
{
    std::vector<Vector> results;
    results.reserve(batch.size());
    for (const auto &q : batch.queries)
        results.push_back(reduce(q.indices, op));
    return results;
}

bool
vectorsEqual(const Vector &a, const Vector &b, float tolerance)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::fabs(a[i] - b[i]) > tolerance)
            return false;
    return true;
}

} // namespace fafnir::embedding
