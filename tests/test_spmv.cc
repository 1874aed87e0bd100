/**
 * @file
 * SpMV substrate tests: formats, generators, the iteration/round planner
 * (Figure 9), and functional correctness of both SpMV engines against the
 * CSR reference.
 */

#include <gtest/gtest.h>

#include "baselines/two_step.hh"
#include "common/random.hh"
#include "sparse/fafnir_spmv.hh"
#include "sparse/matgen.hh"
#include "sparse/matrix.hh"
#include "sparse/planner.hh"

using namespace fafnir;
using namespace fafnir::sparse;

namespace
{

dram::MemorySystem
makeMemory(EventQueue &eq)
{
    return dram::MemorySystem(eq, dram::Geometry{},
                              dram::Timing::ddr4_2400());
}

} // namespace

TEST(Matrix, CsrFromTripletsSumsDuplicates)
{
    const CsrMatrix m = CsrMatrix::fromTriplets(
        3, 3, {{0, 1, 1.0f}, {0, 1, 2.0f}, {2, 0, 5.0f}});
    EXPECT_EQ(m.nnz(), 2u);
    const DenseVector y = m.multiply({1.0f, 1.0f, 1.0f});
    EXPECT_FLOAT_EQ(y[0], 3.0f);
    EXPECT_FLOAT_EQ(y[1], 0.0f);
    EXPECT_FLOAT_EQ(y[2], 5.0f);
}

TEST(Matrix, LilRoundTrip)
{
    Rng rng(7);
    const CsrMatrix m = makeUniformRandom(64, 80, 5.0, rng);
    const LilMatrix lil = LilMatrix::fromCsr(m);
    EXPECT_EQ(lil.nnz(), m.nnz());
    const CsrMatrix back = lil.toCsr();
    const DenseVector x = makeOperand(80);
    EXPECT_TRUE(denseEqual(m.multiply(x), back.multiply(x)));
}

TEST(Matrix, TransposeRoundTrip)
{
    Rng rng(8);
    const CsrMatrix m = makeUniformRandom(48, 96, 4.0, rng);
    const CsrMatrix tt = m.transpose().transpose();
    const DenseVector x = makeOperand(96);
    EXPECT_EQ(tt.rows(), m.rows());
    EXPECT_EQ(tt.cols(), m.cols());
    EXPECT_TRUE(denseEqual(tt.multiply(x), m.multiply(x)));
}

TEST(Matrix, TransposeMultiplyIdentity)
{
    // (A^T x)[c] == sum_r A[r][c] x[r]
    const CsrMatrix a = CsrMatrix::fromTriplets(
        2, 3, {{0, 1, 2.0f}, {1, 0, 3.0f}, {1, 2, 4.0f}});
    const CsrMatrix at = a.transpose();
    const DenseVector y = at.multiply({1.0f, 10.0f});
    EXPECT_FLOAT_EQ(y[0], 30.0f);
    EXPECT_FLOAT_EQ(y[1], 2.0f);
    EXPECT_FLOAT_EQ(y[2], 40.0f);
}

TEST(Planner, SingleRoundNeedsNoMerge)
{
    const SpmvPlan plan = planSpmv(2048, 2048);
    EXPECT_EQ(plan.iterations(), 1u);
    EXPECT_EQ(plan.totalMerges(), 0u);
}

TEST(Planner, PaperTwentyMillionColumns)
{
    // Figure 9b: 20M columns at vector size 2048 -> two merge iterations.
    const SpmvPlan plan = planSpmv(20'000'000, 2048);
    EXPECT_EQ(plan.roundsPerIteration[0], 9766u);
    EXPECT_EQ(plan.mergeIterations(), 2u);
    EXPECT_EQ(plan.roundsPerIteration[1], 5u);
    EXPECT_EQ(plan.roundsPerIteration[2], 1u);
}

TEST(Planner, VectorSize1024NeedsMoreRounds)
{
    const SpmvPlan p1024 = planSpmv(20'000'000, 1024);
    const SpmvPlan p2048 = planSpmv(20'000'000, 2048);
    EXPECT_GT(p1024.roundsPerIteration[0], p2048.roundsPerIteration[0]);
    EXPECT_GE(p1024.totalMerges(), p2048.totalMerges());
}

TEST(Planner, MonotonicRounds)
{
    for (std::uint64_t cols = 1; cols < (1ull << 22); cols *= 3) {
        const SpmvPlan plan = planSpmv(cols, 2048);
        ASSERT_GE(plan.iterations(), 1u);
        // Each iteration strictly shrinks the stream count.
        for (std::size_t i = 1; i < plan.roundsPerIteration.size(); ++i)
            EXPECT_LT(plan.roundsPerIteration[i],
                      plan.roundsPerIteration[i - 1]);
        EXPECT_EQ(plan.roundsPerIteration.back(), 1u);
    }
}

struct SpmvCase
{
    const char *name;
    std::uint32_t rows;
    std::uint32_t cols;
    double nnzPerRow;
    unsigned vectorSize;
};

class SpmvEngines : public ::testing::TestWithParam<SpmvCase>
{
};

TEST_P(SpmvEngines, FafnirMatchesReference)
{
    const SpmvCase c = GetParam();
    Rng rng(1000 + c.rows);
    const CsrMatrix csr =
        makeUniformRandom(c.rows, c.cols, c.nnzPerRow, rng);
    const LilMatrix lil = LilMatrix::fromCsr(csr);
    const DenseVector x = makeOperand(c.cols);
    const DenseVector expect = csr.multiply(x);

    EventQueue eq;
    auto mem = makeMemory(eq);
    FafnirSpmvConfig cfg;
    cfg.vectorSize = c.vectorSize;
    FafnirSpmv engine(mem, cfg);
    SpmvTiming timing;
    const DenseVector y = engine.multiply(lil, x, 0, timing);
    EXPECT_TRUE(denseEqual(y, expect)) << c.name;
    EXPECT_GT(timing.complete, timing.issued);
    EXPECT_EQ(timing.multiplies, csr.nnz());
}

TEST_P(SpmvEngines, TwoStepMatchesReference)
{
    const SpmvCase c = GetParam();
    Rng rng(2000 + c.rows);
    const CsrMatrix csr =
        makeUniformRandom(c.rows, c.cols, c.nnzPerRow, rng);
    const LilMatrix lil = LilMatrix::fromCsr(csr);
    const DenseVector x = makeOperand(c.cols);
    const DenseVector expect = csr.multiply(x);

    EventQueue eq;
    auto mem = makeMemory(eq);
    baselines::TwoStepConfig cfg;
    cfg.chunkColumns = c.vectorSize / 2;
    baselines::TwoStepEngine engine(mem, cfg);
    SpmvTiming timing;
    const DenseVector y = engine.multiply(lil, x, 0, timing);
    EXPECT_TRUE(denseEqual(y, expect)) << c.name;
    EXPECT_GT(timing.complete, timing.issued);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpmvEngines,
    ::testing::Values(SpmvCase{"tiny", 16, 16, 3.0, 8},
                      SpmvCase{"single-round", 128, 100, 4.0, 128},
                      SpmvCase{"two-rounds", 256, 300, 5.0, 128},
                      SpmvCase{"many-rounds", 512, 2000, 6.0, 64},
                      SpmvCase{"two-merge-iterations", 300, 5000, 3.0, 8},
                      SpmvCase{"wide", 64, 4096, 16.0, 256}));

TEST(SpmvEngines, GeneratorsProduceValidMatrices)
{
    Rng rng(5);
    for (auto &w : figure14Workloads(rng)) {
        EXPECT_GT(w.matrix.nnz(), 0u) << w.name;
        EXPECT_EQ(w.matrix.rows(), w.matrix.cols()) << w.name;
        // Spot-check SpMV runs end to end on the real suite.
    }
}

TEST(SpmvEngines, PowerLawAndRoadShapes)
{
    Rng rng(6);
    const CsrMatrix web = makePowerLawGraph(2000, 8.0, 0.9, rng);
    EXPECT_NEAR(static_cast<double>(web.nnz()) / web.rows(), 8.0, 6.0);

    const CsrMatrix road = makeRoadNetwork(4096, rng);
    const double degree = static_cast<double>(road.nnz()) / road.rows();
    EXPECT_GT(degree, 1.5);
    EXPECT_LT(degree, 4.5);

    const CsrMatrix band = makeBanded(512, 16, rng);
    // Banded: all entries within the band.
    for (std::uint32_t r = 0; r < band.rows(); ++r) {
        for (std::uint32_t k = band.rowPtr()[r]; k < band.rowPtr()[r + 1];
             ++k) {
            const auto c = static_cast<std::int64_t>(band.colIdx()[k]);
            EXPECT_LE(std::abs(c - static_cast<std::int64_t>(r)), 16);
        }
    }
}
