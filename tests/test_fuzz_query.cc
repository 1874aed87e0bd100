/**
 * @file
 * Seedable structured fuzzer over query construction and the guarded
 * serving path. Batches mixing well-formed queries with every defect
 * class (empty, unsorted, duplicate, out-of-range, oversized, broken
 * ids) — plus plan-driven corruption — are pushed through admission and
 * a real engine. The contract under test: the service answers each
 * query correctly or fails it with a tagged degradation reason; it
 * never aborts, never reads out of bounds (CI runs this suite under
 * ASan/UBSan), and never returns silent garbage.
 *
 * Iteration count defaults to a PR-gate-friendly 200 per test; the
 * nightly CI job raises it with FAFNIR_FUZZ_ITERS.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>

#include "baselines/cpu.hh"
#include "common/faultinject.hh"
#include "common/random.hh"
#include "dram/memsystem.hh"
#include "embedding/batcher.hh"
#include "embedding/reduce_kernels.hh"
#include "embedding/service.hh"
#include "fafnir/sharding.hh"
#include "sim/eventq.hh"

using namespace fafnir;
using namespace fafnir::embedding;

namespace
{

std::size_t
fuzzIterations()
{
    if (const char *env = std::getenv("FAFNIR_FUZZ_ITERS")) {
        const long n = std::strtol(env, nullptr, 10);
        if (n > 0)
            return static_cast<std::size_t>(n);
    }
    return 200;
}

/** Structured generator of hostile batches. */
class QueryFuzzer
{
  public:
    QueryFuzzer(std::uint64_t seed, std::uint64_t index_limit)
        : rng_(seed), indexLimit_(index_limit)
    {}

    Batch
    nextBatch()
    {
        Batch batch;
        // Degenerate sizes included: empty batches and single queries.
        const std::size_t n = rng_.nextBelow(13);
        for (std::size_t i = 0; i < n; ++i)
            batch.queries.push_back(nextQuery(i));
        return batch;
    }

    /** Count of defect-shaped queries emitted so far. */
    std::size_t hostileCount() const { return hostile_; }

  private:
    std::vector<IndexId>
    sortedUnique(std::size_t width)
    {
        std::vector<IndexId> indices;
        for (std::size_t i = 0; i < width; ++i)
            indices.push_back(rng_.nextBelow(indexLimit_));
        std::sort(indices.begin(), indices.end());
        indices.erase(std::unique(indices.begin(), indices.end()),
                      indices.end());
        return indices;
    }

    Query
    nextQuery(std::size_t position)
    {
        Query q;
        q.id = static_cast<QueryId>(position);
        switch (rng_.nextBelow(10)) {
        case 0: // empty
            ++hostile_;
            break;
        case 1: { // duplicate index
            ++hostile_;
            q.indices = sortedUnique(8);
            if (q.indices.empty())
                q.indices.push_back(1);
            q.indices.insert(q.indices.begin(), q.indices.front());
            break;
        }
        case 2: // out-of-range index
            ++hostile_;
            q.indices = sortedUnique(8);
            q.indices.push_back(indexLimit_ + rng_.nextBelow(1 << 20));
            break;
        case 3: // unsorted
            ++hostile_;
            q.indices = sortedUnique(8);
            std::reverse(q.indices.begin(), q.indices.end());
            if (q.indices.size() < 2)
                q.indices = {5, 3};
            break;
        case 4: // oversized (max-width blast)
            ++hostile_;
            q.indices = sortedUnique(4096);
            break;
        case 5: // broken id numbering
            ++hostile_;
            q.id = static_cast<QueryId>(position + 7);
            q.indices = sortedUnique(4);
            if (q.indices.empty())
                q.indices.push_back(2);
            break;
        default: // well-formed, width 1..32
            q.indices = sortedUnique(1 + rng_.nextBelow(32));
            if (q.indices.empty())
                q.indices.push_back(rng_.nextBelow(indexLimit_));
            break;
        }
        return q;
    }

    Rng rng_;
    std::uint64_t indexLimit_;
    std::size_t hostile_ = 0;
};

/** CPU-baseline rig; cheap enough to serve thousands of batches. */
struct FuzzRig
{
    TableConfig tables{32, 4096, 512, 4};
    EventQueue eq;
    dram::MemorySystem memory;
    EmbeddingStore store;
    VectorLayout layout;
    baselines::CpuEngine engine;

    FuzzRig()
        : memory(eq, dram::Geometry::withTotalRanks(32),
                 dram::Timing::ddr4_2400(), dram::Interleave::BlockRank,
                 512),
          store(tables), layout(tables, memory.mapper()),
          engine(memory, layout)
    {}

    GuardConfig
    guardConfig() const
    {
        GuardConfig gc;
        gc.indexLimit = tables.totalVectors();
        gc.maxQueryWidth = 64;
        return gc;
    }

    /** ServeFn that also cross-checks the values of every batch the
     *  guard admits — served answers must match the store reference. */
    ServiceGuard::ServeFn
    checkedServe()
    {
        return [this](const Batch &batch, Tick at) {
            const auto got =
                engine.reduceBatch(store, batch, ReduceOp::Sum);
            const auto want = store.reduceBatch(batch, ReduceOp::Sum);
            EXPECT_EQ(got.size(), want.size());
            for (std::size_t q = 0; q < want.size(); ++q)
                EXPECT_TRUE(vectorsEqual(got[q], want[q], 0.0f));
            const auto t = engine.lookup(batch, at);
            return ServeSample{t.complete, t.queryComplete};
        };
    }
};

void
expectTaggedOutcomes(const GuardedRequest &r, std::size_t batch_size)
{
    ASSERT_EQ(r.outcomes.size(), batch_size);
    EXPECT_EQ(r.servedQueries + r.droppedQueries, batch_size);
    for (const auto &outcome : r.outcomes) {
        if (outcome.served()) {
            // Served results carry None, or FaultPersisted when every
            // attempt saw injected faults — never a drop reason.
            EXPECT_TRUE(outcome.reason == DegradeReason::None ||
                        outcome.reason == DegradeReason::FaultPersisted)
                << toString(outcome.reason);
        } else {
            EXPECT_TRUE(outcome.reason == DegradeReason::InvalidQuery ||
                        outcome.reason == DegradeReason::DeadlineExceeded)
                << toString(outcome.reason);
            if (outcome.reason == DegradeReason::InvalidQuery) {
                EXPECT_NE(outcome.defect, QueryDefect::None);
            }
        }
    }
}

} // namespace

TEST(FuzzQuery, ValidateNeverAbortsAndTagsEveryDefect)
{
    QueryFuzzer fuzzer(1234, 4096);
    std::size_t tagged = 0;
    for (std::size_t iter = 0; iter < fuzzIterations(); ++iter) {
        const Batch batch = fuzzer.nextBatch();
        const auto issues = batch.validate(4096, 64);
        for (const auto &issue : issues) {
            EXPECT_LT(issue.position, batch.size());
            EXPECT_NE(issue.defect, QueryDefect::None);
            // toString must cover every emitted defect.
            EXPECT_STRNE(toString(issue.defect), "");
        }
        tagged += issues.size();
    }
    EXPECT_GT(fuzzer.hostileCount(), 0u);
    EXPECT_GT(tagged, 0u);
}

TEST(FuzzQuery, GuardedServiceNeverCrashes)
{
    FuzzRig rig;
    ServiceGuard guard(rig.guardConfig(), rig.checkedServe());
    QueryFuzzer fuzzer(99, rig.tables.totalVectors());

    std::size_t served = 0, dropped = 0;
    for (std::size_t iter = 0; iter < fuzzIterations(); ++iter) {
        const Batch batch = fuzzer.nextBatch();
        const GuardedRequest r = guard.serve(batch, 0);
        expectTaggedOutcomes(r, batch.size());
        served += r.servedQueries;
        dropped += r.droppedQueries;
    }
    // The mix must have exercised both sides of the contract.
    EXPECT_GT(served, 0u);
    EXPECT_GT(dropped, 0u);
    EXPECT_GT(guard.rejectedQueryCount(), 0u);
}

TEST(FuzzQuery, GuardedServiceNeverCrashesUnderFaultPlan)
{
    fault::FaultPlan plan = fault::FaultPlan::parse(
        "dram_latency:0.1,dram_stall:0.05,query_malformed:0.1,"
        "query_oversized:0.05,query_dup_index:0.1",
        31);
    fault::ScopedPlanInstall install(&plan);

    FuzzRig rig;
    ServiceGuard guard(rig.guardConfig(), rig.checkedServe());
    QueryFuzzer fuzzer(7, rig.tables.totalVectors());

    for (std::size_t iter = 0; iter < fuzzIterations(); ++iter) {
        Batch batch = fuzzer.nextBatch();
        injectQueryFaults(batch, rig.tables.totalVectors());
        const GuardedRequest r = guard.serve(batch, 0);
        expectTaggedOutcomes(r, batch.size());
    }
    EXPECT_GT(plan.totalFired(), 0u);
    EXPECT_GT(guard.rejectedQueryCount(), 0u);
}

TEST(FuzzQuery, TightDeadlineDegradesGracefully)
{
    FuzzRig rig;
    GuardConfig gc = rig.guardConfig();
    gc.queryDeadline = 1; // essentially unmeetable
    gc.maxAttempts = 2;
    ServiceGuard guard(gc, rig.checkedServe());
    QueryFuzzer fuzzer(55, rig.tables.totalVectors());

    std::size_t expired = 0;
    for (std::size_t iter = 0; iter < 50; ++iter) {
        const Batch batch = fuzzer.nextBatch();
        const GuardedRequest r = guard.serve(batch, 0);
        expectTaggedOutcomes(r, batch.size());
        for (const auto &outcome : r.outcomes)
            expired += outcome.reason == DegradeReason::DeadlineExceeded;
    }
    EXPECT_GT(expired, 0u);
    EXPECT_EQ(guard.expiredQueryCount(), expired);
}

TEST(FuzzQuery, ShardedRouterNeverCrashesAndCombinesExactly)
{
    // Hostile batches through the shard router: out-of-range indices
    // wrap deterministically instead of rejecting, empty queries route
    // nowhere, duplicates and unsorted runs survive the split. The
    // router must cover every reference exactly once, and the
    // tier-style fixed-order combine of per-shard store partials must
    // equal the whole-batch store reference to the bit.
    FuzzRig rig;
    QueryFuzzer fuzzer(21, rig.tables.totalVectors());
    for (unsigned shards : {2u, 5u}) {
        core::ShardRouter router(shards, rig.tables);
        const std::size_t iters = std::max<std::size_t>(
            fuzzIterations() / 4, 50);
        for (std::size_t iter = 0; iter < iters; ++iter) {
            const Batch batch = fuzzer.nextBatch();
            const core::ShardRouter::SplitBatch split =
                router.split(batch);

            std::size_t refs = 0;
            for (const auto &sub : split.perShard)
                for (const Query &q : sub.batch.queries) {
                    EXPECT_FALSE(q.indices.empty());
                    refs += q.indices.size();
                }
            EXPECT_EQ(refs, batch.totalIndices());

            // Shard 0 seeds, higher shards fold in ascending order
            // — exactly what ShardedServingTier does with engine
            // partials.
            std::vector<Vector> combined(batch.size());
            for (unsigned s = 0; s < shards; ++s) {
                const auto &sub = split.perShard[s];
                for (std::size_t l = 0; l < sub.batch.queries.size();
                     ++l) {
                    const Vector partial = rig.store.reduce(
                        sub.batch.queries[l].indices, ReduceOp::Sum);
                    Vector &acc = combined[sub.globalQuery[l]];
                    if (acc.empty())
                        acc = partial;
                    else
                        combineSpan(ReduceOp::Sum, acc.data(),
                                    partial.data(), acc.size());
                }
            }
            for (std::size_t g = 0; g < batch.size(); ++g) {
                if (batch.queries[g].indices.empty()) {
                    EXPECT_TRUE(combined[g].empty());
                    continue;
                }
                const Vector want = rig.store.reduce(
                    batch.queries[g].indices, ReduceOp::Sum);
                ASSERT_EQ(combined[g].size(), want.size());
                EXPECT_EQ(std::memcmp(combined[g].data(), want.data(),
                                      want.size() * sizeof(float)),
                          0)
                    << "shards=" << shards << " query=" << g;
            }
        }
    }
    EXPECT_GT(fuzzer.hostileCount(), 0u);
}

TEST(FuzzQuery, ShardedSplitSameSeedSameStructure)
{
    // The split is a pure function of (batch, placement): replaying the
    // same fuzz seed must produce the identical routing decisions.
    auto run_once = [] {
        TableConfig tables{32, 4096, 512, 4};
        core::ShardRouter router(3, tables);
        QueryFuzzer fuzzer(63, tables.totalVectors());
        std::vector<std::uint64_t> trail;
        for (std::size_t iter = 0; iter < 64; ++iter) {
            const Batch batch = fuzzer.nextBatch();
            const auto split = router.split(batch);
            trail.push_back(split.crossShardQueries);
            for (const auto &sub : split.perShard) {
                trail.push_back(sub.batch.queries.size());
                for (const Query &q : sub.batch.queries)
                    for (IndexId index : q.indices)
                        trail.push_back(index);
            }
        }
        return trail;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(FuzzQuery, SameSeedSameOutcomes)
{
    auto run_once = [] {
        fault::FaultPlan plan =
            fault::FaultPlan::parse("query_malformed:0.2,dram_latency:0.1",
                                    47);
        fault::ScopedPlanInstall install(&plan);
        FuzzRig rig;
        ServiceGuard guard(rig.guardConfig(), rig.checkedServe());
        QueryFuzzer fuzzer(17, rig.tables.totalVectors());

        std::vector<std::uint8_t> trail;
        for (std::size_t iter = 0; iter < 64; ++iter) {
            Batch batch = fuzzer.nextBatch();
            injectQueryFaults(batch, rig.tables.totalVectors());
            const GuardedRequest r = guard.serve(batch, 0);
            for (const auto &outcome : r.outcomes) {
                trail.push_back(static_cast<std::uint8_t>(outcome.reason));
                trail.push_back(static_cast<std::uint8_t>(outcome.defect));
                trail.push_back(
                    static_cast<std::uint8_t>(outcome.attempts));
            }
        }
        return trail;
    };
    EXPECT_EQ(run_once(), run_once());
}
