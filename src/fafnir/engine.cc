/**
 * @file
 * Implementation of the Fafnir timing engine.
 */

#include "engine.hh"

#include <algorithm>

namespace fafnir::core
{

FafnirEngine::FafnirEngine(dram::MemorySystem &memory,
                           const embedding::VectorLayout &layout,
                           const EngineConfig &config)
    : memory_(memory), replay_(memory, layout, config)
{}

LookupTiming
FafnirEngine::lookupPrepared(PreparedBatch &prepared, Tick start,
                             Tick min_complete)
{
    scheduleReads(prepared, config().readOrder, memory_.mapper());
    const TreeTopology &topology = replay_.topology();
    const unsigned num_pes = topology.numPes();
    const unsigned vector_bytes = replay_.vectorBytes(prepared);

    // 1. Issue all reads. Per-rank lists are issued in order; the memory
    //    model serializes bank/bus conflicts internally. A PE's barrier is
    //    its latest input arrival.
    LookupTiming timing;
    std::vector<Tick> last_input(num_pes + 1, start);
    replay_.issueReads(
        prepared, start, timing,
        [&](const RankRead &read, unsigned, unsigned pe, unsigned,
            std::size_t) {
            const auto result = memory_.read(read.address, vector_bytes,
                                             start, dram::Destination::Ndp);
            last_input[pe] = std::max(last_input[pe], result.complete);
            return result;
        });

    // 2. Functional evaluation (headers only) with traces.
    const TreeRun run = replay_.run(prepared, start, timing);

    // 3. Replay traces leaves to root: a PE's outputs start once its
    //    last input has arrived, one per issue slot.
    std::vector<Tick> root_times;
    for (unsigned pe = num_pes; pe >= 1; --pe) {
        const Tick ready = replay_.align(last_input[pe]);
        const auto &outputs = run.trace[pe].outputs;
        for (std::size_t k = 0; k < outputs.size(); ++k) {
            const Tick t = ready + replay_.pathTicks(pe, outputs[k].action) +
                           k * replay_.issueTicks();
            if (pe == TreeTopology::rootPe()) {
                root_times.push_back(t);
            } else {
                Tick &parent_input = last_input[topology.parent(pe)];
                parent_input = std::max(parent_input, t);
            }
        }
        if (pe == 1)
            break;
    }

    // 4. Per-query completion at the root, then the root-to-host links.
    replay_.hostTail(replay_.queryReady(run, root_times, start),
                     vector_bytes, min_complete, timing);
    timing.memLast = std::min(timing.memLast, timing.complete);

    ++batches_;
    queries_ += timing.queryComplete.size();
    reads_ += timing.memAccesses;
    reduces_ += timing.activity.reduces;
    forwards_ += timing.activity.forwards;
    rootCombines_ += timing.rootCombines;
    bufferOverflows_ += timing.bufferOverflows;
    dramPayloadBytes_ += timing.dramPayloadBytes;
    linkPayloadBytes_ += timing.linkPayloadBytes;
    return timing;
}

void
FafnirEngine::registerStats(StatGroup &group) const
{
    group.addCounter("batches", batches_, "hardware batches served");
    group.addCounter("queries", queries_, "queries completed");
    group.addCounter("reads", reads_, "DRAM vector reads issued");
    group.addCounter("reduces", reduces_, "PE reduce operations");
    group.addCounter("forwards", forwards_, "PE forward operations");
    group.addCounter("rootCombines", rootCombines_,
                     "root-stage partial combinations");
    group.addCounter("bufferOverflows", bufferOverflows_,
                     "batches whose PE occupancy exceeded hwBatch");
    group.addCounter("dramPayloadBytes", dramPayloadBytes_,
                     "modelled payload bytes read from DRAM");
    group.addCounter("linkPayloadBytes", linkPayloadBytes_,
                     "modelled payload bytes over PE/root links");
    group.addFormula(
        "readsPerQuery",
        [this] {
            return queries_.value() == 0
                ? 0.0
                : static_cast<double>(reads_.value()) /
                      static_cast<double>(queries_.value());
        },
        "mean DRAM reads per query (dedup efficiency)");
}

} // namespace fafnir::core
