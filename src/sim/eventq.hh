/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A minimal gem5-style event queue: events are callbacks scheduled at
 * absolute ticks (picoseconds); the queue pops them in (tick, priority,
 * insertion-order) order. All timing models in the repository — DRAM
 * banks, Fafnir PEs, channel buses, baseline NDP units — are driven from
 * one EventQueue per simulated system.
 *
 * Hot-path design. Every pending entry lives in a slab of pooled nodes
 * with inline callback storage, so scheduling and firing a one-shot
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
 * Cancellation is lazy via generation counting; stale nodes are dropped
 * when their tick drains, and both structures are compacted once stale
 * entries outnumber live ones, so reschedule-heavy components cannot
 * grow the queue without bound. The (tick, priority, insertion-order)
 * contract is identical to the heap-only kernel and is pinned by the
 * determinism tests.
 */

#ifndef FAFNIR_SIM_EVENTQ_HH
#define FAFNIR_SIM_EVENTQ_HH

#include <cstddef>
#include <cstdint>
#include <functional>
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

/**
 * An event: a named callback with a scheduling priority. Events are owned
 * by their creating component and may be (re)scheduled on one queue at a
 * time; descheduling is handled by generation counting, so cancel() is O(1).
 *
 * Names are debug labels, not owned storage: an Event keeps only the
 * pointer, so pass a string literal (or any string that outlives the
 * event). Hot paths construct events by the thousand and must not copy
 * a std::string each time.
 */
class Event
{
  public:
    /** Lower value runs earlier among events at the same tick. Must fit
     *  in 16 bits — the queue packs (priority, sequence) into one
     *  comparison key. */
    enum Priority : int
    {
        DramPriority = 10,
        DefaultPriority = 50,
        StatsPriority = 90,
    };

    template <typename F>
    explicit Event(const char *name, F &&callback,
                   int priority = DefaultPriority)
        : name_(name), callback_(std::forward<F>(callback)),
          priority_(priority)
    {}

    const char *name() const { return name_; }
    int priority() const { return priority_; }
    bool scheduled() const { return scheduled_; }
    Tick when() const { return when_; }

  private:
    friend class EventQueue;

    const char *name_;
    std::function<void()> callback_;
    int priority_;
    bool scheduled_ = false;
    Tick when_ = 0;
    std::uint64_t generation_ = 0;
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
     * @{ Causal flow ids. A flow tags a chain of one-shot callbacks with
     * the event that originated it: scheduleFn() captures the ambient
     * flow into the node, and firing the node re-establishes it, so
     * everything a callback schedules inherits its cause (0 = untagged).
     * Components start a chain with beginFlow() — ids are monotonically
     * increasing — before scheduling its first event, and instrumentation
     * reads currentFlow() to tag spans. Registered Events do not carry
     * flows; their callbacks run untagged.
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
     * Schedule @p event at absolute tick @p when (>= now). An already-
     * scheduled event is moved to the new time.
     *
     * Fault hooks (with a fault::FaultPlan installed when the queue was
     * built) apply generation-aware: event_drop consumes this schedule
     * — one firing is skipped, the owner's next schedule() recovers —
     * event_dup files a generation-guarded echo that refires the
     * callback unless the event was rescheduled or cancelled first,
     * and event_delay adds delivery jitter. Skipped/suppressed firings
     * count under faults.<hook>.skipped.
     */
    void schedule(Event &event, Tick when);

    /** Remove @p event from the queue if pending. */
    void deschedule(Event &event);

    /**
     * Schedule a one-shot callback at @p when. The queue owns the callback;
     * there is no handle and no way to cancel — use an Event for that.
     * The callable is stored inline in a pooled node (no allocation when
     * it fits the node's storage, as every callable in the repo does).
     *
     * Fault hooks (only with a fault::FaultPlan installed when the
     * queue is built, otherwise one member test): event_drop discards
     * the callback outright, event_dup files a second copy at the same
     * tick (copyable callables only), event_delay adds delivery jitter.
     * Registered Events take the same hooks through schedule(), where
     * generation counting makes drops and duplicate echoes safe (see
     * schedule()'s contract).
     */
    template <typename F>
    void
    scheduleFn(Tick when, F &&fn, int priority = Event::DefaultPriority)
    {
        static_assert(std::is_invocable_v<std::decay_t<F>>,
                      "scheduleFn callable must take no arguments");
        using Fn = std::decay_t<F>;
        if (faultPlan_ != nullptr) [[unlikely]] {
            const OneShotFaults f = sampleOneShotFaults(
                when, std::is_copy_constructible_v<Fn>);
            if (f.drop)
                return;
            when = f.when;
            if constexpr (std::is_copy_constructible_v<Fn>) {
                if (f.dup)
                    emplaceDup<Fn>(when, fn, priority);
            }
        }
        emplaceOneShot(when, std::forward<F>(fn), priority);
    }

    /**
     * Schedule a delivery: a one-shot that must fire exactly once,
     * because nothing would recover a lost or repeated copy (a DRAM
     * completion, a flit between PEs). Fault hooks draw as they do for
     * a copyable scheduleFn() callable, so every stream advances the
     * same way, but only event_delay applies: a drawn event_drop or
     * event_dup is counted as a skipped firing (faults.<hook>.skipped)
     * instead.
     */
    template <typename F>
    void
    scheduleDelivery(Tick when, F &&fn,
                     int priority = Event::DefaultPriority)
    {
        static_assert(std::is_invocable_v<std::decay_t<F>>,
                      "scheduleDelivery callable must take no arguments");
        if (faultPlan_ != nullptr) [[unlikely]]
            when = sampleDeliveryFaults(when);
        emplaceOneShot(when, std::forward<F>(fn), priority);
    }

  private:
    /** Fault verdict for one scheduleFn call. */
    struct OneShotFaults
    {
        bool drop;
        bool dup;
        Tick when;
    };

    /** Draw the drop / delay / dup decisions for a one-shot. Cold and
     *  out-of-line so the fault machinery (three RNG streams) never
     *  bloats the inlined scheduleFn body. */
    OneShotFaults sampleOneShotFaults(Tick when, bool copyable);
    /** Draw a delivery's faults; @return its (possibly delayed) tick. */
    Tick sampleDeliveryFaults(Tick when);

    /** File the duplicate copy of a one-shot. Out-of-line so the
     *  callable's copy constructor (std::function for chained events)
     *  is not instantiated inside the hot scheduleFn body. */
    template <typename Fn>
    [[gnu::noinline]] void
    emplaceDup(Tick when, const Fn &fn, int priority)
    {
        emplaceOneShot(when, Fn(fn), priority);
    }
    /** File one one-shot node for @p fn at @p when (no fault hooks). */
    template <typename F>
    void
    emplaceOneShot(Tick when, F &&fn, int priority)
    {
        using Fn = std::decay_t<F>;
        Node *const node = allocNode();
        node->event = nullptr;
        // One-shots reuse the generation field — consulted only for
        // registered Events — as the causal flow tag, keeping the node
        // at two cache lines with no storage shrink.
        node->generation = currentFlow_;
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

  public:
    /** True if no events are pending. */
    bool empty() const { return pendingCount_ == 0; }

    /** Pending events, excluding cancelled/rescheduled generations. */
    std::size_t pendingCount() const { return pendingCount_; }

    /** Stale (cancelled or superseded) entries not yet reclaimed. */
    std::size_t staleCount() const { return stale_; }

    /**
     * Run until the queue drains or @p limit is reached.
     * @return the tick of the last executed event (now()).
     */
    Tick run(Tick limit = MaxTick);

    /** Execute exactly one event if any is pending. @return false if idle. */
    bool step();

    /** Total events executed since construction. */
    std::uint64_t executedCount() const { return executed_; }

  private:
    /**
     * Inline storage of a pooled one-shot callback. Sized so a Node is
     * exactly two cache lines, which fits the largest hot-path capture
     * in the repo: a DRAM completion, the AccessResult by value plus
     * the event engine's continuation (a pointer and three indices),
     * 56 bytes.
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
        /** Registered event, or nullptr for a one-shot callback. */
        Event *event;
        /** Generation the entry was scheduled under (event entries). */
        std::uint64_t generation;
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
     * Find the next occupied tick and activate it if <= @p limit.
     * Returns that tick, or MaxTick when the queue is idle; a return
     * beyond @p limit means the tick was not activated.
     */
    Tick advance(Tick limit);
    /**
     * Execute cache_[cacheIdx_] (precondition: cache has remaining
     * entries). Returns false if the entry was stale and only dropped.
     */
    bool fireNext();
    /** Drop stale entries from all structures, reclaim their nodes. */
    void compact();
    void maybeCompact();

    bool
    isStaleNode(const Node &node) const
    {
        return node.event != nullptr &&
               node.generation != node.event->generation_;
    }

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
    /** Ambient causal flow inherited by scheduled one-shots. */
    std::uint64_t currentFlow_ = 0;
    /** Last flow id handed out by beginFlow(). */
    std::uint64_t flowCounter_ = 0;
    std::uint64_t sequence_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t pendingCount_ = 0;
    std::size_t stale_ = 0;
};

/** Pack (priority, sequence) and file the node under @p when. Inline so
 *  scheduleFn compiles down to a handful of stores at the call site. */
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
