/**
 * @file
 * Queued memory controller with scheduling policies.
 *
 * The MemorySystem is a resource-reservation calculator that serves
 * requests in call order; this controller adds the missing front-end: a
 * per-rank request queue drained by a scheduling policy. FCFS issues in
 * arrival order; FR-FCFS prefers requests that hit a currently open row
 * (the standard open-page scheduler), with an age cap so reordering can
 * never starve an old request. Completions are delivered through the
 * event queue.
 *
 * Fafnir's root plays exactly this role for the unique-index read lists
 * the host compiles ("the root receives the requests ... decodes them,
 * and forwards them to corresponding ranks"), and the CPU baseline's
 * memory controller is the same machine with a different client.
 */

#ifndef FAFNIR_DRAM_CONTROLLER_HH
#define FAFNIR_DRAM_CONTROLLER_HH

#include <deque>
#include <functional>
#include <vector>

#include "common/stats.hh"
#include "dram/memsystem.hh"
#include "sim/eventq.hh"

namespace fafnir::dram
{

/** Queue-drain policy. */
enum class SchedulingPolicy
{
    Fcfs,
    FrFcfs,
};

/** The queued controller front-end. */
class Controller
{
  public:
    using Callback = std::function<void(Tick, const AccessResult &)>;

    /**
     * @param memory backing timing model (shared with other clients).
     * @param policy queue-drain policy.
     * @param age_cap_ticks FR-FCFS may bypass a request for at most this
     *        long before age wins (0 = strict row-hit-first).
     */
    Controller(MemorySystem &memory, SchedulingPolicy policy,
               Tick age_cap_ticks = 500 * kTicksPerNs);

    /**
     * Enqueue a read of @p bytes at @p addr, arriving at @p when.
     * @p on_complete fires from the event queue at data delivery.
     */
    void enqueue(Addr addr, unsigned bytes, Tick when, Destination dest,
                 Callback on_complete);

    /** Requests still queued or in flight. */
    std::size_t pending() const { return pending_; }

    SchedulingPolicy policy() const { return policy_; }

    /** @{ Statistics. */
    std::uint64_t issuedCount() const { return issued_.value(); }
    std::uint64_t reorderedCount() const { return reordered_.value(); }
    void registerStats(StatGroup &group) const;
    /** @} */

  private:
    struct Request
    {
        Addr addr = 0;
        unsigned bytes = 0;
        Destination dest = Destination::Ndp;
        Tick arrival = 0;
        std::uint64_t sequence = 0;
        /** Causal flow tag captured from the event queue at enqueue. */
        std::uint64_t flow = 0;
        Callback onComplete;
    };

    struct RankQueue
    {
        std::deque<Request> requests;
        /** A drain pass is scheduled or running. */
        bool draining = false;
        /** Earliest tick the next issue may happen (command pipelining). */
        Tick nextIssue = 0;
    };

    /** Pick and issue requests for @p rank until its queue drains. */
    void drain(unsigned rank);

    /** Index of the request to issue next under the policy. */
    std::size_t pickNext(const RankQueue &queue, unsigned rank,
                         Tick now) const;

    MemorySystem &memory_;
    SchedulingPolicy policy_;
    Tick ageCap_;
    std::vector<RankQueue> queues_;
    std::uint64_t sequence_ = 0;
    std::size_t pending_ = 0;

    Counter issued_;
    Counter reordered_;
};

} // namespace fafnir::dram

#endif // FAFNIR_DRAM_CONTROLLER_HH
