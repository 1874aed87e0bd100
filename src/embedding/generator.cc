/**
 * @file
 * Implementation of the batch generator.
 */

#include "generator.hh"

#include <algorithm>

#include "common/logging.hh"

namespace fafnir::embedding
{

BatchGenerator::BatchGenerator(const WorkloadConfig &config,
                               std::uint64_t seed)
    : config_(config), rng_(seed)
{
    FAFNIR_ASSERT(config_.batchSize > 0, "empty batch");
    FAFNIR_ASSERT(config_.querySize > 0, "empty queries");
    FAFNIR_ASSERT(config_.hotFraction > 0.0 && config_.hotFraction <= 1.0,
                  "hotFraction must be in (0,1]");
    effectiveRows_ = config_.hotRows();
    if (config_.popularity == Popularity::Zipfian)
        zipf_.emplace(effectiveRows_, config_.zipfSkew);
    FAFNIR_ASSERT(config_.population() >= config_.querySize,
                  "population too small for query size");
}

IndexId
BatchGenerator::drawIndex()
{
    const unsigned table =
        static_cast<unsigned>(rng_.nextBelow(config_.tables.numTables));
    const std::uint64_t row = zipf_ ? zipf_->sample(rng_)
                                    : rng_.nextBelow(effectiveRows_);
    return config_.tables.flatten(table, row);
}

Batch
BatchGenerator::next()
{
    Batch batch;
    batch.queries.reserve(config_.batchSize);
    for (unsigned qi = 0; qi < config_.batchSize; ++qi) {
        unsigned size = config_.querySize;
        if (config_.minQuerySize) {
            size = static_cast<unsigned>(rng_.nextRange(
                *config_.minQuerySize, config_.querySize));
        }
        Query query;
        query.id = qi;
        query.indices.reserve(size);
        while (query.indices.size() < size) {
            const IndexId candidate = drawIndex();
            if (!query.contains(candidate))
                query.indices.push_back(candidate);
        }
        std::sort(query.indices.begin(), query.indices.end());
        batch.queries.push_back(std::move(query));
    }
    batch.check();
    return batch;
}

} // namespace fafnir::embedding
