/**
 * @file
 * Span-based element-wise reduction kernels.
 *
 * Every dense combine in the repo — the PE reduce path, the functional
 * tree's root accumulation, the reference gather-reduce — is a loop of
 * `combine(op, a[i], b[i])` over a float span. These helpers hoist the
 * operator dispatch out of the loop so the compiler can vectorize the
 * body, and add an AVX2 implementation selected once at runtime
 * (reduceKernelBackend() names the choice).
 *
 * Exactness contract: every backend produces bit-identical results to
 * the scalar `combine`/`finalize` reference for all operands —
 * element-wise add/min/max/div involve no reassociation, and the AVX2
 * min/max use compare+blend to match std::min/std::max ordering
 * semantics exactly (including signed zeros and NaN propagation). The
 * property tests in test_reduce_ops.cc pin this.
 */

#ifndef FAFNIR_EMBEDDING_REDUCE_KERNELS_HH
#define FAFNIR_EMBEDDING_REDUCE_KERNELS_HH

#include <cstddef>

#include "embedding/reduce_op.hh"

namespace fafnir::embedding
{

/** Name of the selected implementation: "avx2" or "scalar". */
const char *reduceKernelBackend();

/** dst[i] = combine(op, dst[i], src[i]) for i in [0, n). */
void combineSpan(ReduceOp op, float *dst, const float *src, std::size_t n);

/** dst[i] = combine(op, a[i], b[i]) for i in [0, n). */
void combineSpan(ReduceOp op, float *dst, const float *a, const float *b,
                 std::size_t n);

/** dst[i] = finalize(op, dst[i], count) — scales Mean, else no-op. */
void finalizeSpan(ReduceOp op, float *dst, std::size_t n,
                  std::size_t count);

/**
 * Sum of |a[i] - b[i]| accumulated in doubles, in index order. The
 * iterative sparse solvers use this for residuals; it deliberately
 * stays scalar so the sequential association (and therefore every
 * convergence trajectory) is unchanged.
 */
double absDeltaSum(const float *a, const float *b, std::size_t n);

} // namespace fafnir::embedding

#endif // FAFNIR_EMBEDDING_REDUCE_KERNELS_HH
