/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A minimal gem5-style event queue: events are callbacks scheduled at
 * absolute ticks (picoseconds); the queue pops them in (tick, priority,
 * insertion-order) order. Each simulated system owns one EventQueue as
 * its clock. The queued DRAM controller runs on it; the event-driven
 * Fafnir engine replays its tree without scheduling and moves the clock
 * past each batch (advanceTo).
 *
 * One way to schedule: schedule() files a one-shot callback that fires
 * exactly once. There are no handles and no cancellation, so no entry
 * can go stale and every pending entry is live.
 *
 * Hot-path design. Every pending entry lives in a slab of pooled nodes
 * with inline callback storage, so scheduling and firing a callback
 * allocates nothing. The pending set is split by distance from the
 * clock:
 *
 *  - Near future (a sliding window of one-tick buckets): schedule is an
 *    O(1) chain push plus an occupancy-bitmap bit; pop drains one tick
 *    at a time through a small sorted cache, so same-window events are
 *    ordered with at most one sortedness check and no per-event heap
 *    sifts. A two-level bitmap finds the next occupied tick in a few
 *    word scans.
 *  - Far future: a 4-ary min-heap of compact (tick, order, node)
 *    entries. When the window drains past its end, it is re-based at
 *    the heap's minimum and heap entries inside the new window migrate
 *    into buckets — each entry pays the heap cost at most once.
 *
 * The (tick, priority, insertion-order) contract is identical to the
 * heap-only kernel and is pinned by the determinism tests.
 */

#ifndef FAFNIR_SIM_EVENTQ_HH
#define FAFNIR_SIM_EVENTQ_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/faultinject.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace fafnir::telemetry
{
class TraceSink;
class FlightRecorder;
} // namespace fafnir::telemetry

namespace fafnir
{

/** Lower value runs earlier among events at the same tick. Any int in
 *  16 bits is a valid priority — the queue packs (priority, sequence)
 *  into one comparison key. */
enum EventPriority : int
{
    DramPriority = 10,
    DefaultPriority = 50,
};

/**
 * The simulation clock and pending-event set.
 */
class EventQueue
{
  public:
    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * @{ Causal flow ids. A flow tags a chain of callbacks with the
     * event that originated it: schedule() captures the ambient flow
     * into the node, and firing the node re-establishes it, so
     * everything a callback schedules inherits its cause (0 =
     * untagged). Components start a chain with beginFlow() — ids are
     * monotonically increasing — before scheduling its first event, and
     * instrumentation reads currentFlow() to tag spans.
     */
    std::uint64_t
    beginFlow()
    {
        currentFlow_ = ++flowCounter_;
        return currentFlow_;
    }

    std::uint64_t currentFlow() const { return currentFlow_; }
    void setCurrentFlow(std::uint64_t flow) { currentFlow_ = flow; }

    /** The most recently allocated flow id (0 = none yet). */
    std::uint64_t lastFlowId() const { return flowCounter_; }
    /** @} */

    /**
     * Schedule a one-shot callback at @p when (>= now()); it fires
     * exactly once. The queue owns the callback; there is no handle and
     * no way to cancel. The callable is stored inline in a pooled node
     * (no allocation when it fits the node's storage, as every callable
     * in the repo does).
     */
    template <typename F>
    void
    schedule(Tick when, F &&fn, int priority = DefaultPriority)
    {
        static_assert(std::is_invocable_v<std::decay_t<F>>,
                      "scheduled callable must take no arguments");
        using Fn = std::decay_t<F>;
        if (faultPlan_ != nullptr) [[unlikely]]
            when = sampleFaults(when);
        Node *const node = allocNode();
        node->flow = currentFlow_;
        if constexpr (sizeof(Fn) <= kInlineCallbackBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(node->storage))
                Fn(std::forward<F>(fn));
            node->fire = [](void *p) {
                Fn *f = static_cast<Fn *>(p);
                (*f)();
                f->~Fn();
            };
            node->drop = [](void *p) { static_cast<Fn *>(p)->~Fn(); };
        } else {
            // Oversized callable: one heap allocation, node holds a
            // pointer to it.
            ::new (static_cast<void *>(node->storage))
                Fn *(new Fn(std::forward<F>(fn)));
            node->fire = [](void *p) {
                Fn *f = *static_cast<Fn **>(p);
                (*f)();
                delete f;
            };
            node->drop = [](void *p) { delete *static_cast<Fn **>(p); };
        }
        insertNode(node, when, priority);
    }

    /** True if no events are pending. */
    bool empty() const { return pendingCount_ == 0; }

    /** Pending events. */
    std::size_t pendingCount() const { return pendingCount_; }

    /**
     * Run until the queue drains or @p limit is reached.
     * @return the tick of the last executed event (now()).
     */
    Tick run(Tick limit = MaxTick);

    /** Execute exactly one event if any is pending. @return false if idle. */
    bool step();

    /**
     * Run every event pending at or before @p when (>= now()), then move
     * the clock to @p when — for components that time work without
     * scheduling it and must leave the clock where their last event
     * would have left it.
     */
    void advanceTo(Tick when);

    /**
     * The fault plan installed when this queue was built, or nullptr.
     * schedule() draws event_delay from it; a component that times a
     * delivery without scheduling it draws under the same rule.
     */
    fault::FaultPlan *faultPlan() const { return faultPlan_; }

    /** Total events executed since construction. */
    std::uint64_t executedCount() const { return executed_; }

  private:
    /**
     * Inline storage of a pooled callback. Sized so a Node is exactly
     * two cache lines, which fits the largest capture in the repo: the
     * queued DRAM controller's completion, its std::function callback
     * plus the AccessResult by value, 64 bytes.
     */
    static constexpr std::size_t kInlineCallbackBytes = 80;
    /** Near-future window: one bucket per tick. */
    static constexpr std::size_t kWindowBits = 14;
    static constexpr Tick kWindow = Tick(1) << kWindowBits;
    /** Nodes per slab chunk. */
    static constexpr std::size_t kChunkNodes = 256;

    /** One pending entry: chain link + ordering key + payload. The
     *  64-byte alignment keeps the header and a small callable in one
     *  cache line. */
    struct alignas(64) Node
    {
        /** (priority, sequence) packed into one comparison key. */
        std::uint64_t order;
        /** Causal flow the callback was scheduled under. */
        std::uint64_t flow;
        /** Next node in the same bucket chain / free list. */
        Node *next;
        /** Invoke the stored callable, then destroy it. */
        void (*fire)(void *);
        /** Destroy the stored callable without calling it (teardown). */
        void (*drop)(void *);
        alignas(std::max_align_t) unsigned char
            storage[kInlineCallbackBytes];
    };
    static_assert(sizeof(Node) == 128, "Node should be two cache lines");

    /** Far-future heap entry; comparisons never touch the node. */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t order;
        Node *node;
    };

    /** A drained-but-unexecuted entry of the active tick. */
    struct CacheEntry
    {
        std::uint64_t order;
        Node *node;
    };

    static bool
    heapBefore(const HeapEntry &a, const HeapEntry &b)
    {
        return a.when != b.when ? a.when < b.when : a.order < b.order;
    }

    /** Draw event_delay for one schedule; @return its (possibly
     *  delayed) tick. Cold and out-of-line so the fault machinery never
     *  bloats the inlined schedule body. */
    Tick sampleFaults(Tick when);

    Node *allocNode();
    void freeNode(Node *node);
    void insertNode(Node *node, Tick when, int priority);
    void bucketPush(std::size_t bucket, Node *node);
    void clearBucketBit(std::size_t bucket);
    void heapPush(HeapEntry entry);
    void heapPopTop();
    void heapSiftDown(std::size_t hole, HeapEntry entry);
    /** First occupied bucket at or after @p from, or kWindow. */
    std::size_t scanBuckets(std::size_t from) const;
    /** Collect + sort the chain of @p tick's bucket into the cache. */
    void activateTick(Tick tick);
    /** Merge same-tick arrivals into the active cache. */
    void refreshCache();
    /** Re-base the window at the heap minimum, migrate entries in. */
    void rebaseWindow();
    /**
     * Activate the next occupied tick if it is <= @p limit. Returns
     * false, activating nothing, when the queue is idle or the next
     * tick lies beyond @p limit.
     */
    bool advance(Tick limit);
    /** Execute cache_[cacheIdx_] (precondition: cache has remaining
     *  entries). */
    void fireNext();

    /** Pooled entries in chunked slabs: node addresses stay stable while
     *  a firing callback schedules more work. */
    std::vector<std::unique_ptr<Node[]>> chunks_;
    Node *freeHead_ = nullptr;

    /** Near-future buckets: chain heads, newest first. */
    std::vector<Node *> bucketHead_;
    /** Two-level occupancy bitmap over the buckets. */
    std::vector<std::uint64_t> bucketBits_;
    std::uint64_t summaryBits_[kWindow / 64 / 64];
    Tick windowBase_ = 0;

    /** Far-future 4-ary min-heap. */
    std::vector<HeapEntry> heap_;

    /** Active-tick drain cache: entries sorted by order, cursor idx. */
    std::vector<CacheEntry> cache_;
    std::size_t cacheIdx_ = 0;
    Tick cacheTick_ = MaxTick;
    /** Bucket index of cacheTick_, or kWindow when no tick is active. */
    std::size_t activeBucket_ = kWindow;
    /** Set when a schedule lands on the active tick's bucket. */
    bool cacheDirty_ = false;
    /** Trace sink snapshot, refreshed per activated tick. */
    telemetry::TraceSink *curSink_ = nullptr;
    /** Flight recorder cached per active tick, like curSink_. */
    telemetry::FlightRecorder *curRec_ = nullptr;

    Tick now_ = 0;
    /** The fault plan installed when this queue was built (nullptr =
     *  injection off). Sampled once at construction so the hot path
     *  tests a member the schedule state keeps warm anyway — install
     *  the plan before building the simulated system. */
    fault::FaultPlan *faultPlan_ = fault::plan();
    /** Ambient causal flow inherited by scheduled callbacks. */
    std::uint64_t currentFlow_ = 0;
    /** Last flow id handed out by beginFlow(). */
    std::uint64_t flowCounter_ = 0;
    std::uint64_t sequence_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t pendingCount_ = 0;
};

/** Pack (priority, sequence) and file the node under @p when. Inline so
 *  schedule compiles down to a handful of stores at the call site. */
inline void
EventQueue::insertNode(Node *node, Tick when, int priority)
{
    FAFNIR_ASSERT(when >= now_, "scheduling in the past: ", when, " < ",
                  now_);
    FAFNIR_ASSERT(priority >= -32768 && priority <= 32767,
                  "priority out of 16-bit range: ", priority);
    FAFNIR_ASSERT(sequence_ < (std::uint64_t(1) << 48),
                  "event sequence counter overflow");
    // One comparison key: biased 16-bit priority above a 48-bit sequence.
    node->order = (static_cast<std::uint64_t>(
                       static_cast<std::uint32_t>(priority + 32768))
                   << 48) |
                  sequence_++;
    const Tick delta = when - windowBase_;
    if (delta < kWindow)
        bucketPush(static_cast<std::size_t>(delta), node);
    else
        heapPush({when, node->order, node});
    ++pendingCount_;
}

inline void
EventQueue::bucketPush(std::size_t bucket, Node *node)
{
    Node *&head = bucketHead_[bucket];
    node->next = head;
    if (head == nullptr) {
        bucketBits_[bucket >> 6] |= std::uint64_t(1) << (bucket & 63);
        summaryBits_[bucket >> 12] |= std::uint64_t(1)
                                      << ((bucket >> 6) & 63);
    }
    head = node;
    if (bucket == activeBucket_)
        cacheDirty_ = true;
}

} // namespace fafnir

#endif // FAFNIR_SIM_EVENTQ_HH
