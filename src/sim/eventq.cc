/**
 * @file
 * Implementation of the event queue.
 *
 * Structure invariants (established in the header comment):
 *  - windowBase_ <= now_ except transiently inside advance(), between a
 *    window re-base and the execution of the migrated heap minimum.
 *    now_ may lie past the window's end after advanceTo(); the window is
 *    then empty and the next schedule goes to the heap.
 *  - Bucket entries sit in bucket[when - windowBase_]; ticks below
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
    // Destroy never-fired callbacks still sitting in the queue.
    for (std::size_t i = cacheIdx_; i < cache_.size(); ++i)
        cache_[i].node->drop(cache_[i].node->storage);
    for (std::size_t word = 0; word < bucketBits_.size(); ++word) {
        std::uint64_t bits = bucketBits_[word];
        while (bits != 0) {
            const std::size_t bucket =
                word * 64 + std::countr_zero(bits);
            bits &= bits - 1;
            for (Node *node = bucketHead_[bucket]; node != nullptr;
                 node = node->next) {
                node->drop(node->storage);
            }
        }
    }
    for (const HeapEntry &entry : heap_)
        entry.node->drop(entry.node->storage);
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
        cache_.push_back({node->order, node});
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
        cache_.push_back({node->order, node});
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
        // Heap pops arrive in (when, order) order, so same-tick chains
        // stay newest-first like direct inserts.
        bucketPush(static_cast<std::size_t>(delta), top.node);
    }
}

bool
EventQueue::advance(Tick limit)
{
    while (true) {
        const Tick from = now_ > windowBase_ ? now_ - windowBase_ : 0;
        // A clock moved past the window's end (advanceTo) has drained
        // every bucket, so the window holds nothing.
        const std::size_t bucket =
            from < kWindow ? scanBuckets(static_cast<std::size_t>(from))
                           : kWindow;
        if (bucket == kWindow) {
            // Nothing in the window; the heap minimum is next.
            if (heap_.empty() || heap_[0].when > limit)
                return false;
            rebaseWindow();
            continue;
        }
        const Tick tick = windowBase_ + bucket;
        if (tick > limit)
            return false;
        activateTick(tick);
        return true;
    }
}

void
EventQueue::fireNext()
{
    // Same-tick arrivals (scheduled while this tick drains) must be
    // merged before choosing the next entry.
    if (cacheDirty_)
        refreshCache();
    Node *const node = cache_[cacheIdx_++].node;
    // Pull the next entry's node in while this one executes.
    if (cacheIdx_ < cache_.size())
        __builtin_prefetch(cache_[cacheIdx_].node);
    now_ = cacheTick_;
    --pendingCount_;
    ++executed_;
    // Re-establish the scheduler's flow so work scheduled by this
    // callback inherits its cause. Every dispatch writes currentFlow_
    // before firing, so no reset is needed afterwards; out-of-dispatch
    // scheduling that cares sets its own flow (beginFlow /
    // setCurrentFlow).
    currentFlow_ = node->flow;
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
}

/** Cold by design: only reached when a fault plan is installed, so the
 *  event_delay draw stays out of the inlined schedule() fast path. */
[[gnu::noinline]] Tick
EventQueue::sampleFaults(Tick when)
{
    return when + faultPlan_->eventDelayTicks();
}

bool
EventQueue::step()
{
    if (cacheIdx_ >= cache_.size() && !advance(MaxTick))
        return false; // idle
    fireNext();
    return true;
}

void
EventQueue::advanceTo(Tick when)
{
    FAFNIR_ASSERT(when >= now_, "moving the clock back: ", when, " < ",
                  now_);
    run(when);
    now_ = when;
}

Tick
EventQueue::run(Tick limit)
{
    while (true) {
        if (cacheIdx_ >= cache_.size()) {
            if (!advance(limit))
                break; // idle, or the next tick is beyond the limit
        } else if (cacheTick_ > limit) {
            break; // a partially drained tick left over from an earlier run
        }
        fireNext();
    }
    return now_;
}

} // namespace fafnir
