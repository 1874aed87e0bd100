/**
 * @file
 * parallelFor contract tests: every index runs exactly once, results
 * written to per-index slots are identical to a serial run at any job
 * count, exceptions propagate to the caller, and the degenerate job
 * counts take the inline path. The whole file is data-race-free by
 * construction, which makes it the TSan target for the sweep runner.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/parallel.hh"

using namespace fafnir;

TEST(Parallel, DefaultJobsIsAtLeastOne)
{
    EXPECT_GE(defaultJobs(), 1u);
}

TEST(Parallel, RunsEveryIndexExactlyOnce)
{
    for (const unsigned jobs : {1u, 2u, 8u}) {
        const std::size_t n = 97;
        std::vector<std::atomic<int>> hits(n);
        parallelFor(n, jobs, [&](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " i=" << i;
    }
}

TEST(Parallel, SlotResultsMatchSerialBitForBit)
{
    const std::size_t n = 64;
    auto sweep = [&](unsigned jobs) {
        std::vector<double> out(n);
        parallelFor(n, jobs, [&](std::size_t i) {
            // Enough float work that a reassociated reduction would
            // show up as a different bit pattern.
            double acc = 0.0;
            for (std::size_t k = 1; k <= 1000; ++k)
                acc += 1.0 / static_cast<double>(i * 1000 + k);
            out[i] = acc;
        });
        return out;
    };
    const auto serial = sweep(1);
    EXPECT_EQ(sweep(2), serial);
    EXPECT_EQ(sweep(8), serial);
}

TEST(Parallel, ZeroAndSingleElementRanges)
{
    int calls = 0;
    parallelFor(0, 8, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallelFor(1, 8, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(Parallel, JobsOneRunsInOrderOnCallingThread)
{
    std::vector<std::size_t> order;
    parallelFor(5, 1, [&](std::size_t i) { order.push_back(i); });
    std::vector<std::size_t> expect(5);
    std::iota(expect.begin(), expect.end(), 0);
    EXPECT_EQ(order, expect);
}

TEST(Parallel, ExceptionPropagatesToCaller)
{
    for (const unsigned jobs : {1u, 4u}) {
        EXPECT_THROW(parallelFor(32, jobs,
                                 [](std::size_t i) {
                                     if (i == 7)
                                         throw std::runtime_error("boom");
                                 }),
                     std::runtime_error)
            << "jobs=" << jobs;
    }
}

TEST(Parallel, ExceptionAbandonsRemainingWork)
{
    // After a worker throws, the claim loop stops handing out indices;
    // with one failing index the executed count must stay below n.
    const std::size_t n = 100000;
    std::atomic<std::size_t> executed{0};
    try {
        parallelFor(n, 4, [&](std::size_t i) {
            if (i == 0)
                throw std::runtime_error("early");
            ++executed;
        });
        FAIL() << "expected exception";
    } catch (const std::runtime_error &) {
    }
    EXPECT_LT(executed.load(), n);
}

TEST(Parallel, MoreJobsThanWork)
{
    std::vector<std::atomic<int>> hits(3);
    parallelFor(3, 64, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(hits[i].load(), 1);
}
