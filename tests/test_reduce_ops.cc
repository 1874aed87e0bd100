/**
 * @file
 * Reduction-operator tests: the tree must compute element-wise Sum, Min,
 * Max, and Mean identically to the reference, including under dedup
 * (shared values feeding several queries) and same-rank collisions
 * (root-combine paths).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include "dram/memsystem.hh"
#include "embedding/generator.hh"
#include "embedding/layout.hh"
#include "embedding/reduce_kernels.hh"
#include "fafnir/functional.hh"

using namespace fafnir;
using namespace fafnir::core;
using namespace fafnir::embedding;

namespace
{

struct OpRig
{
    TableConfig tables{32, 4096, 512, 4};
    EventQueue eq;
    dram::MemorySystem memory;
    EmbeddingStore store;
    VectorLayout layout;
    TreeTopology topology{32};
    FunctionalTree tree{topology};

    OpRig()
        : memory(eq, dram::Geometry{}, dram::Timing::ddr4_2400(),
                 dram::Interleave::BlockRank, 512),
          store(tables), layout(tables, memory.mapper())
    {}

    void
    check(const Batch &batch, ReduceOp op, bool dedup)
    {
        const TreeRun run = tree.run(
            prepareBatch(layout, &store, batch, dedup), true, false, op);
        const auto reference = store.reduceBatch(batch, op);
        for (std::size_t q = 0; q < reference.size(); ++q) {
            EXPECT_TRUE(vectorsEqual(run.results[q], reference[q]))
                << toString(op) << " query " << q;
        }
    }
};

Batch
batchOf(std::initializer_list<std::vector<IndexId>> queries)
{
    Batch batch;
    QueryId id = 0;
    for (auto q : queries) {
        std::sort(q.begin(), q.end());
        batch.queries.push_back({id++, std::move(q)});
    }
    return batch;
}

} // namespace

class ReduceOpSweep
    : public ::testing::TestWithParam<std::tuple<ReduceOp, bool>>
{
};

TEST_P(ReduceOpSweep, TreeMatchesReference)
{
    const auto [op, dedup] = GetParam();
    OpRig rig;
    rig.check(batchOf({{1, 2, 5, 6}, {2, 5, 9, 77}, {5, 100, 333}}), op,
              dedup);
    // Same-rank collision path (indices 0 and 32 share a rank).
    rig.check(batchOf({{0, 32, 64}}), op, dedup);
    // Random workload.
    WorkloadConfig wc;
    wc.tables = rig.tables;
    wc.batchSize = 8;
    wc.querySize = 12;
    wc.zipfSkew = 1.0;
    wc.hotFraction = 0.02;
    BatchGenerator gen(wc, 77);
    for (int i = 0; i < 3; ++i)
        rig.check(gen.next(), op, dedup);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, ReduceOpSweep,
    ::testing::Combine(::testing::Values(ReduceOp::Sum, ReduceOp::Min,
                                         ReduceOp::Max, ReduceOp::Mean),
                       ::testing::Bool()));

TEST(ReduceOp, CombineSemantics)
{
    EXPECT_FLOAT_EQ(combine(ReduceOp::Sum, 2.0f, 3.0f), 5.0f);
    EXPECT_FLOAT_EQ(combine(ReduceOp::Min, 2.0f, 3.0f), 2.0f);
    EXPECT_FLOAT_EQ(combine(ReduceOp::Max, 2.0f, 3.0f), 3.0f);
    EXPECT_FLOAT_EQ(combine(ReduceOp::Mean, 2.0f, 3.0f), 5.0f);
}

TEST(ReduceOp, FinalizeOnlyAffectsMean)
{
    EXPECT_FLOAT_EQ(finalize(ReduceOp::Sum, 6.0f, 3), 6.0f);
    EXPECT_FLOAT_EQ(finalize(ReduceOp::Min, 6.0f, 3), 6.0f);
    EXPECT_FLOAT_EQ(finalize(ReduceOp::Mean, 6.0f, 3), 2.0f);
}

TEST(ReduceOp, MeanIsScaledSum)
{
    OpRig rig;
    const std::vector<IndexId> indices{4, 9, 13, 700};
    const auto sum = rig.store.reduce(indices, ReduceOp::Sum);
    const auto mean = rig.store.reduce(indices, ReduceOp::Mean);
    for (std::size_t e = 0; e < sum.size(); ++e)
        EXPECT_FLOAT_EQ(mean[e], sum[e] / 4.0f);
}

TEST(ReduceOp, MinMaxAreIdempotentUnderSharing)
{
    // Heavy sharing: min/max must not be disturbed by the merge unit's
    // value reuse.
    OpRig rig;
    rig.check(batchOf({{5, 1}, {5, 2}, {5, 3}, {5, 4}, {5, 1, 2, 3, 4}}),
              ReduceOp::Min, true);
    rig.check(batchOf({{5, 1}, {5, 2}, {5, 3}, {5, 4}, {5, 1, 2, 3, 4}}),
              ReduceOp::Max, true);
}

// --- span kernels ------------------------------------------------------
// The dispatched kernels (AVX2 on machines that have it) must match the
// scalar combine/finalize reference bit for bit, for every operator, on
// lengths that exercise full vector blocks, ragged tails, and spans
// shorter than one vector.

namespace
{

std::vector<float>
randomSpan(std::mt19937 &rng, std::size_t n)
{
    // Mix magnitudes and signs; exact zeros and negative zeros land in
    // the stream too, which is where min/max semantics diverge.
    std::uniform_real_distribution<float> dist(-1000.0f, 1000.0f);
    std::uniform_int_distribution<int> special(0, 15);
    std::vector<float> v(n);
    for (auto &x : v) {
        const int s = special(rng);
        x = s == 0 ? 0.0f : s == 1 ? -0.0f : dist(rng);
    }
    return v;
}

} // namespace

TEST(ReduceKernels, BackendIsReported)
{
    const std::string backend = reduceKernelBackend();
    EXPECT_TRUE(backend == "avx2" || backend == "scalar") << backend;
}

TEST(ReduceKernels, SpansMatchScalarReferenceExactly)
{
    std::mt19937 rng(4242);
    const ReduceOp ops[] = {ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max,
                            ReduceOp::Mean};
    // 1..17 covers sub-vector spans and ragged tails; the big sizes
    // cover multi-block loops (128 is the repo's default dimension).
    const std::size_t sizes[] = {1,  2,  3,  7,  8,  9,   15,  16, 17,
                                 31, 33, 64, 100, 128, 129, 255, 256};
    for (const ReduceOp op : ops) {
        for (const std::size_t n : sizes) {
            const auto a = randomSpan(rng, n);
            const auto b = randomSpan(rng, n);

            // In-place two-operand form.
            std::vector<float> dst = a;
            combineSpan(op, dst.data(), b.data(), n);
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(dst[i], combine(op, a[i], b[i]))
                    << toString(op) << " n=" << n << " i=" << i;
            }

            // Three-operand form.
            std::vector<float> out(n, -1.0f);
            combineSpan(op, out.data(), a.data(), b.data(), n);
            ASSERT_EQ(out, dst) << toString(op) << " n=" << n;

            // Finalization (Mean scales, everything else no-ops).
            std::vector<float> fin = a;
            finalizeSpan(op, fin.data(), n, 7);
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(fin[i], finalize(op, a[i], 7))
                    << toString(op) << " n=" << n << " i=" << i;
            }
        }
    }
}

TEST(ReduceKernels, TailLanesMatchScalarOnSpecialValues)
{
    // Odd dims force every tail-handling path (vector blocks plus 1-7
    // stragglers); the operand pool seeds NaNs, signed zeros, and
    // infinities so tail lanes are checked for the full ordering and
    // propagation semantics, not just finite payloads. Results are
    // compared as bit patterns: NaN == NaN is false, memcmp is not.
    const ReduceOp ops[] = {ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max,
                            ReduceOp::Mean};
    const std::size_t dims[] = {1, 7, 17, 31, 33};
    const float pool[] = {0.0f,
                          -0.0f,
                          1.5f,
                          -2.25f,
                          std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(),
                          1e-38f,
                          3.5f};
    std::mt19937 rng(1717);
    std::uniform_int_distribution<std::size_t> pick(
        0, std::size(pool) - 1);
    for (const ReduceOp op : ops) {
        for (const std::size_t n : dims) {
            std::vector<float> a(n), b(n);
            for (std::size_t i = 0; i < n; ++i) {
                a[i] = pool[pick(rng)];
                b[i] = pool[pick(rng)];
            }
            // Deterministically exercise the last lane with each
            // special in turn as well.
            a[n - 1] = pool[(n + static_cast<std::size_t>(op)) %
                            std::size(pool)];

            std::vector<float> dst = a;
            combineSpan(op, dst.data(), b.data(), n);
            std::vector<float> expect(n);
            for (std::size_t i = 0; i < n; ++i)
                expect[i] = combine(op, a[i], b[i]);
            ASSERT_EQ(std::memcmp(dst.data(), expect.data(),
                                  n * sizeof(float)),
                      0)
                << toString(op) << " n=" << n;

            std::vector<float> out(n, -1.0f);
            combineSpan(op, out.data(), a.data(), b.data(), n);
            ASSERT_EQ(std::memcmp(out.data(), dst.data(),
                                  n * sizeof(float)),
                      0)
                << toString(op) << " n=" << n << " (three-operand)";

            std::vector<float> fin = dst;
            finalizeSpan(op, fin.data(), n, 3);
            for (std::size_t i = 0; i < n; ++i)
                expect[i] = finalize(op, dst[i], 3);
            ASSERT_EQ(std::memcmp(fin.data(), expect.data(),
                                  n * sizeof(float)),
                      0)
                << toString(op) << " n=" << n << " (finalize)";
        }
    }
}

TEST(ReduceKernels, MinMaxOrderingSemantics)
{
    // std::min/std::max return the FIRST operand on ties; signed zeros
    // tie under <, so the sign of the result pins operand order.
    const std::size_t n = 9; // one vector block plus a tail element
    std::vector<float> pos(n, 0.0f);
    std::vector<float> neg(n, -0.0f);

    std::vector<float> dst = pos;
    combineSpan(ReduceOp::Min, dst.data(), neg.data(), n);
    for (const float v : dst)
        EXPECT_FALSE(std::signbit(v)); // min(+0, -0) = +0

    dst = neg;
    combineSpan(ReduceOp::Max, dst.data(), pos.data(), n);
    for (const float v : dst)
        EXPECT_TRUE(std::signbit(v)); // max(-0, +0) = -0
}

TEST(ReduceKernels, AbsDeltaSumIsSequential)
{
    const std::vector<float> a{1.0f, 2.0f, 3.5f};
    const std::vector<float> b{0.5f, 4.0f, 3.5f};
    double expect = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        expect += std::fabs(a[i] - b[i]);
    EXPECT_EQ(absDeltaSum(a.data(), b.data(), a.size()), expect);
    EXPECT_EQ(absDeltaSum(a.data(), b.data(), 0), 0.0);
}
