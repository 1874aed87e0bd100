/**
 * @file
 * Implementation of the event queue.
 *
 * Structure invariants (established in the header comment):
 *  - windowBase_ <= now_ except transiently inside advance(), between a
 *    window re-base and the execution of the migrated heap minimum.
 *  - Live bucket entries sit in bucket[when - windowBase_]; ticks below
 *    now_ have already been drained, so their buckets are empty.
 *  - Heap entries satisfy when - windowBase_ >= kWindow: inserts target
 *    the heap only beyond the window, and every re-base migrates all
 *    entries that the new window covers.
 *  - The occupancy bitmap is exact: a bucket bit is set iff its chain is
 *    non-empty, and a summary bit iff its bitmap word is non-zero.
 */

#include "eventq.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "telemetry/flightrec.hh"
#include "telemetry/trace_sink.hh"

namespace fafnir
{

namespace
{

/** Children of 4-ary heap node @p i start at 4i+1; parent is (i-1)/4. */
constexpr std::size_t kHeapArity = 4;

} // namespace

EventQueue::EventQueue()
    : bucketHead_(kWindow, nullptr), bucketBits_(kWindow / 64, 0)
{
    for (std::uint64_t &word : summaryBits_)
        word = 0;
}

EventQueue::~EventQueue()
{
    // Destroy never-fired one-shot callbacks still sitting in the queue.
    const auto dropOneShot = [](Node *node) {
        if (node->event == nullptr)
            node->drop(node->storage);
    };
    for (std::size_t i = cacheIdx_; i < cache_.size(); ++i)
        dropOneShot(cache_[i].node);
    for (std::size_t word = 0; word < bucketBits_.size(); ++word) {
        std::uint64_t bits = bucketBits_[word];
        while (bits != 0) {
            const std::size_t bucket =
                word * 64 + std::countr_zero(bits);
            bits &= bits - 1;
            for (Node *node = bucketHead_[bucket]; node != nullptr;
                 node = node->next) {
                dropOneShot(node);
            }
        }
    }
    for (const HeapEntry &entry : heap_)
        dropOneShot(entry.node);
}

EventQueue::Node *
EventQueue::allocNode()
{
    Node *node = freeHead_;
    if (node != nullptr) {
        freeHead_ = node->next;
        return node;
    }
    // New chunk, threaded onto the free list in address order.
    chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
    Node *const chunk = chunks_.back().get();
    for (std::size_t i = kChunkNodes - 1; i > 0; --i)
        chunk[i].next = i + 1 < kChunkNodes ? &chunk[i + 1] : nullptr;
    freeHead_ = &chunk[1];
    return &chunk[0];
}

void
EventQueue::freeNode(Node *node)
{
    node->next = freeHead_;
    freeHead_ = node;
}

void
EventQueue::clearBucketBit(std::size_t bucket)
{
    std::uint64_t &word = bucketBits_[bucket >> 6];
    word &= ~(std::uint64_t(1) << (bucket & 63));
    if (word == 0) {
        summaryBits_[bucket >> 12] &=
            ~(std::uint64_t(1) << ((bucket >> 6) & 63));
    }
}

std::size_t
EventQueue::scanBuckets(std::size_t from) const
{
    std::size_t word = from >> 6;
    const std::uint64_t first =
        bucketBits_[word] & (~std::uint64_t(0) << (from & 63));
    if (first != 0)
        return (word << 6) + std::countr_zero(first);

    // The summary is exact, so any set summary bit names a non-empty word.
    std::size_t sword = word >> 6;
    const unsigned sbit = static_cast<unsigned>(word & 63);
    std::uint64_t summary =
        sbit == 63 ? 0
                   : summaryBits_[sword] & (~std::uint64_t(0) << (sbit + 1));
    constexpr std::size_t kSummaryWords = kWindow / 64 / 64;
    while (true) {
        if (summary != 0) {
            word = (sword << 6) + std::countr_zero(summary);
            const std::uint64_t bits = bucketBits_[word];
            return (word << 6) + std::countr_zero(bits);
        }
        if (++sword >= kSummaryWords)
            return kWindow;
        summary = summaryBits_[sword];
    }
}

void
EventQueue::heapPush(HeapEntry entry)
{
    std::size_t hole = heap_.size();
    heap_.push_back(entry);
    while (hole > 0) {
        const std::size_t parent = (hole - 1) / kHeapArity;
        if (!heapBefore(entry, heap_[parent]))
            break;
        heap_[hole] = heap_[parent];
        hole = parent;
    }
    heap_[hole] = entry;
}

void
EventQueue::heapPopTop()
{
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        heapSiftDown(0, last);
}

void
EventQueue::heapSiftDown(std::size_t hole, HeapEntry entry)
{
    const std::size_t size = heap_.size();
    while (true) {
        const std::size_t first = hole * kHeapArity + 1;
        if (first >= size)
            break;
        std::size_t best = first;
        const std::size_t last = std::min(first + kHeapArity, size);
        for (std::size_t child = first + 1; child < last; ++child) {
            if (heapBefore(heap_[child], heap_[best]))
                best = child;
        }
        if (!heapBefore(heap_[best], entry))
            break;
        heap_[hole] = heap_[best];
        hole = best;
    }
    heap_[hole] = entry;
}

void
EventQueue::activateTick(Tick tick)
{
    const std::size_t bucket =
        static_cast<std::size_t>(tick - windowBase_);
    Node *node = bucketHead_[bucket];
    bucketHead_[bucket] = nullptr;
    clearBucketBit(bucket);

    cache_.clear();
    cacheIdx_ = 0;
    cacheTick_ = tick;
    activeBucket_ = bucket;
    cacheDirty_ = false;
    curSink_ = telemetry::sink();
    curRec_ = telemetry::flightRecorder();
    while (node != nullptr) {
        Node *const next = node->next;
        if (next != nullptr)
            __builtin_prefetch(next);
        if (isStaleNode(*node)) {
            --stale_;
            freeNode(node);
        } else {
            cache_.push_back({node->order, node});
        }
        node = next;
    }
    // The chain is newest-first; reversing restores insertion order,
    // which is already sorted unless priorities interleave.
    std::reverse(cache_.begin(), cache_.end());
    const auto less = [](const CacheEntry &a, const CacheEntry &b) {
        return a.order < b.order;
    };
    if (!std::is_sorted(cache_.begin(), cache_.end(), less))
        std::sort(cache_.begin(), cache_.end(), less);
}

void
EventQueue::refreshCache()
{
    Node *node = bucketHead_[activeBucket_];
    bucketHead_[activeBucket_] = nullptr;
    clearBucketBit(activeBucket_);
    cacheDirty_ = false;

    const std::size_t start = cache_.size();
    while (node != nullptr) {
        Node *const next = node->next;
        if (next != nullptr)
            __builtin_prefetch(next);
        if (isStaleNode(*node)) {
            --stale_;
            freeNode(node);
        } else {
            cache_.push_back({node->order, node});
        }
        node = next;
    }
    std::reverse(cache_.begin() + start, cache_.end());
    const auto less = [](const CacheEntry &a, const CacheEntry &b) {
        return a.order < b.order;
    };
    // New arrivals carry fresh sequence numbers, so appending keeps the
    // remainder sorted unless one outranks a pending entry by priority.
    if (!std::is_sorted(cache_.begin() + cacheIdx_, cache_.end(), less))
        std::sort(cache_.begin() + cacheIdx_, cache_.end(), less);
}

void
EventQueue::rebaseWindow()
{
    Tick base = heap_[0].when;
    if (base > MaxTick - kWindow + 1)
        base = MaxTick - kWindow + 1; // keep windowBase_+index overflow-free
    FAFNIR_ASSERT(base >= windowBase_, "window re-base moved backwards");
    windowBase_ = base;
    while (!heap_.empty()) {
        const HeapEntry top = heap_[0];
        const Tick delta = top.when - windowBase_;
        if (delta >= kWindow)
            break;
        heapPopTop();
        if (isStaleNode(*top.node)) {
            --stale_;
            freeNode(top.node);
        } else {
            // Heap pops arrive in (when, order) order, so same-tick
            // chains stay newest-first like direct inserts.
            bucketPush(static_cast<std::size_t>(delta), top.node);
        }
    }
}

Tick
EventQueue::advance(Tick limit)
{
    while (true) {
        const std::size_t from =
            now_ > windowBase_
                ? static_cast<std::size_t>(now_ - windowBase_)
                : 0;
        const std::size_t bucket = scanBuckets(from);
        if (bucket == kWindow) {
            // Nothing in the window; the heap minimum is next.
            while (!heap_.empty() && isStaleNode(*heap_[0].node)) {
                --stale_;
                freeNode(heap_[0].node);
                heapPopTop();
            }
            if (heap_.empty())
                return MaxTick;
            if (heap_[0].when > limit)
                return heap_[0].when;
            rebaseWindow();
            continue;
        }
        const Tick tick = windowBase_ + bucket;
        if (tick > limit)
            return tick;
        activateTick(tick);
        if (cacheIdx_ < cache_.size())
            return tick;
        // The tick held only stale entries; keep scanning.
    }
}

bool
EventQueue::fireNext()
{
    // Same-tick arrivals (scheduled while this tick drains) must be
    // merged before choosing the next entry.
    if (cacheDirty_)
        refreshCache();
    const CacheEntry entry = cache_[cacheIdx_++];
    // Pull the next entry's node in while this one executes.
    if (cacheIdx_ < cache_.size())
        __builtin_prefetch(cache_[cacheIdx_].node);
    Node *const node = entry.node;
    Event *const event = node->event;
    if (event != nullptr) {
        if (node->generation != event->generation_) {
            --stale_;
            freeNode(node);
            return false;
        }
        now_ = cacheTick_;
        event->scheduled_ = false;
        --pendingCount_;
        ++executed_;
        currentFlow_ = 0; // registered events run untagged
        freeNode(node);
        if (curSink_ != nullptr) {
            curSink_->instantEvent(telemetry::kPidSim, 0, "sim.dispatch",
                                   event->name_, now_);
            curSink_->counterEvent(telemetry::kPidSim, "eventq.pending",
                                   now_,
                                   static_cast<double>(pendingCount_));
        }
        // code 0 = registered event; a = queue depth after dispatch.
        if (curRec_ != nullptr)
            curRec_->record(telemetry::Stage::EventqDispatch, now_, 0,
                            pendingCount_, 0);
        event->callback_();
        return true;
    }
    now_ = cacheTick_;
    --pendingCount_;
    ++executed_;
    // Re-establish the scheduler's flow so work scheduled by this
    // callback inherits its cause (one-shots stash it in generation).
    // Both dispatch paths write currentFlow_ before firing, so no reset
    // is needed afterwards; out-of-dispatch scheduling that cares sets
    // its own flow (beginFlow / setCurrentFlow).
    currentFlow_ = node->generation;
    if (curSink_ != nullptr) {
        curSink_->counterEvent(telemetry::kPidSim, "eventq.pending", now_,
                               static_cast<double>(pendingCount_));
    }
    // code 1 = one-shot; a = queue depth after dispatch, b = flow id.
    if (curRec_ != nullptr)
        curRec_->record(telemetry::Stage::EventqDispatch, now_, 1,
                        pendingCount_, currentFlow_);
    // Invoke from the node (slab storage is stable even if the callback
    // schedules more work), then retire it.
    node->fire(node->storage);
    freeNode(node);
    return true;
}

/** Cold by design: only reached when a fault plan is installed, so the
 *  RNG draws stay out of the inlined scheduleFn fast path. Sampling
 *  order (drop, delay, dup) is part of the determinism contract; dup is
 *  only drawn for copyable callables so move-only schedules leave the
 *  dup stream untouched. */
[[gnu::noinline]] EventQueue::OneShotFaults
EventQueue::sampleOneShotFaults(Tick when, bool copyable)
{
    OneShotFaults f{false, false, when};
    if (faultPlan_->shouldFire(fault::Hook::EventDrop)) {
        f.drop = true;
        return f;
    }
    f.when = when + faultPlan_->eventDelayTicks();
    if (copyable)
        f.dup = faultPlan_->shouldFire(fault::Hook::EventDup);
    return f;
}

/** Cold like sampleOneShotFaults(), whose draws it makes. */
[[gnu::noinline]] Tick
EventQueue::sampleDeliveryFaults(Tick when)
{
    const OneShotFaults f = sampleOneShotFaults(when, true);
    if (f.drop)
        faultPlan_->noteSkippedFiring(fault::Hook::EventDrop);
    if (f.dup)
        faultPlan_->noteSkippedFiring(fault::Hook::EventDup);
    return f.when;
}

void
EventQueue::schedule(Event &event, Tick when)
{
    // Lossy hooks apply to registered events generation-aware, in the
    // same stream order as one-shots (drop, delay, dup):
    //  - event_drop consumes this (re)schedule: the generation bump
    //    stales any queued node, so exactly one firing is skipped and
    //    the owner's next schedule() recovers the event.
    //  - event_dup files a one-shot echo at the same (tick, priority)
    //    guarded by the generation captured at insert; it refires the
    //    callback after the real firing unless the event was
    //    rescheduled or cancelled in between, in which case the echo
    //    is suppressed and counted as a skipped firing.
    // Both outcomes update faults.<hook>.skipped, so a lossy-plan run
    // reports its effective registered-event coverage.
    if (faultPlan_ != nullptr) [[unlikely]] {
        if (faultPlan_->shouldFire(fault::Hook::EventDrop)) {
            faultPlan_->noteSkippedFiring(fault::Hook::EventDrop);
            if (event.scheduled_) {
                --pendingCount_;
                ++stale_;
            }
            ++event.generation_; // the queued node becomes a no-op
            event.scheduled_ = false;
            maybeCompact();
            return;
        }
        when += faultPlan_->eventDelayTicks();
    }
    if (event.scheduled_) {
        --pendingCount_; // the stale queue entry becomes a no-op
        ++stale_;
    }
    ++event.generation_;
    event.scheduled_ = true;
    event.when_ = when;
    Node *const node = allocNode();
    node->event = &event;
    node->generation = event.generation_;
    insertNode(node, when, event.priority_);
    maybeCompact();

    if (faultPlan_ != nullptr) [[unlikely]] {
        if (faultPlan_->shouldFire(fault::Hook::EventDup)) {
            Event *const ev = &event;
            const std::uint64_t gen = event.generation_;
            fault::FaultPlan *const plan = faultPlan_;
            // Inserted after the real node, so at the shared key the
            // echo fires second (insertion order breaks ties).
            emplaceOneShot(
                when,
                [ev, gen, plan] {
                    if (ev->generation_ == gen)
                        ev->callback_();
                    else
                        plan->noteSkippedFiring(fault::Hook::EventDup);
                },
                event.priority_);
        }
    }
}

void
EventQueue::deschedule(Event &event)
{
    if (!event.scheduled_)
        return;
    ++event.generation_; // invalidates the queue entry lazily
    event.scheduled_ = false;
    --pendingCount_;
    ++stale_;
    maybeCompact();
}

void
EventQueue::maybeCompact()
{
    if (stale_ >= 64 && stale_ > pendingCount_)
        compact();
}

void
EventQueue::compact()
{
    // Cache remainder.
    const auto staleOut = [this](const CacheEntry &entry) {
        if (isStaleNode(*entry.node)) {
            --stale_;
            freeNode(entry.node);
            return true;
        }
        return false;
    };
    cache_.erase(std::remove_if(cache_.begin() +
                                    static_cast<std::ptrdiff_t>(cacheIdx_),
                                cache_.end(), staleOut),
                 cache_.end());

    // Bucket chains, preserving newest-first chain order.
    for (std::size_t word = 0; word < bucketBits_.size(); ++word) {
        std::uint64_t bits = bucketBits_[word];
        while (bits != 0) {
            const std::size_t bucket =
                word * 64 + std::countr_zero(bits);
            bits &= bits - 1;
            Node *node = bucketHead_[bucket];
            Node *newHead = nullptr;
            Node **link = &newHead;
            while (node != nullptr) {
                Node *const next = node->next;
                if (isStaleNode(*node)) {
                    --stale_;
                    freeNode(node);
                } else {
                    *link = node;
                    link = &node->next;
                }
                node = next;
            }
            *link = nullptr;
            bucketHead_[bucket] = newHead;
            if (newHead == nullptr)
                clearBucketBit(bucket);
        }
    }

    // Heap: filter, then Floyd rebuild. Pop order depends only on the
    // (when, order) key, a total order, so rebuilding cannot change the
    // execution order.
    std::size_t kept = 0;
    for (const HeapEntry &entry : heap_) {
        if (isStaleNode(*entry.node)) {
            --stale_;
            freeNode(entry.node);
        } else {
            heap_[kept++] = entry;
        }
    }
    heap_.resize(kept);
    if (heap_.size() > 1) {
        for (std::size_t i = (heap_.size() - 2) / kHeapArity + 1; i-- > 0;)
            heapSiftDown(i, heap_[i]);
    }
}

bool
EventQueue::step()
{
    while (true) {
        if (cacheIdx_ >= cache_.size()) {
            advance(MaxTick);
            if (cacheIdx_ >= cache_.size())
                return false; // idle
        }
        if (fireNext())
            return true;
    }
}

Tick
EventQueue::run(Tick limit)
{
    while (true) {
        if (cacheIdx_ >= cache_.size()) {
            advance(limit);
            if (cacheIdx_ >= cache_.size())
                break; // idle, or the next tick is beyond the limit
        } else if (cacheTick_ > limit) {
            break; // a partially drained tick left over from an earlier run
        }
        fireNext();
    }
    return now_;
}

} // namespace fafnir
