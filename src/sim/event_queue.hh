/**
 * @file
 * Discrete-event scheduling: EventQueue and Simulator.
 *
 * The kernel is deliberately small: events are closures scheduled at
 * absolute ticks; ties are broken by a monotonic sequence number so
 * same-tick events fire in scheduling order as a structural
 * guarantee, not an accident of heap layout. Events can be cancelled
 * through the EventId returned at scheduling time.
 *
 * Layout is optimized for the simulator's hot loop:
 *
 *  - a 4-ary min-heap orders small POD keys (tick, sequence, slot),
 *    so sifts touch 24-byte keys in a flat array -- never the
 *    closures -- and the tree is half as deep as a binary heap's;
 *  - closures live in a chunked slab with stable addresses and are
 *    constructed, invoked and destroyed in place (zero moves and
 *    zero allocations per steady-state event; see sim/callback.hh);
 *  - cancellation is an O(1) slot invalidation -- no hash table
 *    anywhere in the kernel -- and the heap stays within a constant
 *    factor of the live events: once cancelled keys outnumber live
 *    ones by more than kCompactSlack, one linear pass filters them
 *    out and re-heapifies, so a long-dated timer cancelled early
 *    (an idle core's promotion check) costs no sift work afterwards.
 *
 * The pop order is the strict total order (when, seq), so none of
 * these layout choices can affect simulation results.
 */

#ifndef AW_SIM_EVENT_QUEUE_HH
#define AW_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/callback.hh"
#include "sim/types.hh"

namespace aw::sim {

/** Opaque handle identifying a scheduled event. */
using EventId = std::uint64_t;

/** Sentinel id returned for "no event". */
constexpr EventId kInvalidEventId = 0;

/**
 * A time-ordered queue of closures.
 *
 * Events scheduled for the same tick fire in scheduling order (FIFO,
 * enforced by a per-queue monotonic sequence counter). Cancellation
 * invalidates the event's slot immediately -- the callback is
 * destroyed right away. Its heap key is dropped when it surfaces or,
 * if cancelled keys pile up first, by a compaction: the heap never
 * holds more than 2 * size() + kCompactSlack keys. Cancelling an id
 * that already fired (or was never scheduled) is a harmless no-op.
 */
class EventQueue
{
  public:
    using Callback = UniqueCallback;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p fn to run at absolute tick @p when. The closure is
     * constructed directly into its slab slot (no intermediate
     * moves).
     *
     * @return an id usable with cancel().
     */
    template <typename F>
    EventId
    schedule(Tick when, F &&fn)
    {
        const std::uint32_t slot = allocSlot();
        Slot &s = slotAt(slot);
        s.cb.emplace(std::forward<F>(fn));
        s.live = true;
        _heap.push_back(Key{when, ++_seq, slot});
        siftUp(_heap.size() - 1);
        ++_live;
        return makeId(slot, s.gen);
    }

    /** Cancel a previously scheduled event (no-op if not pending). */
    void
    cancel(EventId id)
    {
        const std::uint32_t slot = slotOf(id);
        if (slot >= _slotCount)
            return;
        Slot &s = slotAt(slot);
        if (!s.live || s.gen != genOf(id))
            return;
        // Invalidate now (the callback and its captures die here);
        // the heap key stays until it surfaces or a compaction.
        s.live = false;
        ++s.gen;
        s.cb.reset();
        --_live;
        compactIfSparse();
    }

    /** @return true if a schedule()d event has neither fired nor been
     *  cancelled. */
    bool
    pending(EventId id) const
    {
        const std::uint32_t slot = slotOf(id);
        if (slot >= _slotCount)
            return false;
        const Slot &s = slotAt(slot);
        return s.live && s.gen == genOf(id);
    }

    /** @return true if no live (non-cancelled) events remain. */
    bool empty() const { return _live == 0; }

    /** Number of live events still queued. */
    std::size_t size() const { return _live; }

    /** Heap keys held, live and cancelled: at most
     *  2 * size() + kCompactSlack. */
    std::size_t keyCount() const { return _heap.size(); }

    /** Cancelled keys tolerated beyond the live count before the
     *  heap is compacted. */
    static constexpr std::size_t kCompactSlack = 32;

    /**
     * Tick of the next live event.
     * @return kMaxTick when the queue is empty.
     */
    Tick
    nextTick() const
    {
        const_cast<EventQueue *>(this)->skipCancelled();
        return _heap.empty() ? kMaxTick : _heap.front().when;
    }

    /** Result of pop(): when/id/callback of the fired event. */
    struct Popped
    {
        Tick when;
        EventId id;
        Callback cb;
    };

    /**
     * Pop and return the next live event.
     * @pre !empty()
     */
    Popped
    pop()
    {
        skipCancelled();
        const Key top = _heap.front();
        removeTop();
        Slot &s = slotAt(top.slot);
        Popped out{top.when, makeId(top.slot, s.gen),
                   std::move(s.cb)};
        s.live = false;
        ++s.gen;
        _freeSlots.push_back(top.slot);
        --_live;
        compactIfSparse();
        return out;
    }

    /**
     * Fused fire path for the driver's hot loop: if the next live
     * event is due at or before @p horizon, invoke it *in place* --
     * no move out of the slab -- after calling @p before(when) so
     * the driver can advance its clock first. Returns false (queue
     * untouched) when nothing is due.
     *
     * The slot is unpublished (id invalidated) before the closure
     * runs, so a closure cancelling its own id or scheduling new
     * events mid-flight behaves exactly as with pop().
     */
    template <typename BeforeFn>
    bool
    fireNext(Tick horizon, BeforeFn &&before)
    {
        skipCancelled();
        if (_heap.empty() || _heap.front().when > horizon)
            return false;
        const Key top = _heap.front();
        removeTop();
        Slot &s = slotAt(top.slot);
        s.live = false; // the id dies before the closure runs
        ++s.gen;
        --_live;
        compactIfSparse();
        before(top.when);
        s.cb(); // stable slab address: safe against new schedules
        s.cb.reset();
        _freeSlots.push_back(top.slot);
        return true;
    }

  private:
    /** Heap key: 24 bytes, trivially copyable, sifted without ever
     *  touching the closures. */
    struct Key
    {
        Tick when;
        std::uint64_t seq; //!< monotonic FIFO tie-breaker
        std::uint32_t slot;
    };

    /** "a fires before b": the strict total event order. */
    static bool
    fires_before(const Key &a, const Key &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /** One closure slot; gen guards stale EventIds across reuse. */
    struct Slot
    {
        Callback cb;
        std::uint32_t gen = 1;
        bool live = false;
    };

    /** Slab chunking: stable addresses so closures can run in place
     *  while new events grow the slab underneath them. */
    static constexpr std::size_t kSlotChunkShift = 6;
    static constexpr std::size_t kSlotChunk = 1 << kSlotChunkShift;

    static EventId
    makeId(std::uint32_t slot, std::uint32_t gen)
    {
        return (static_cast<EventId>(slot) << 32) | gen;
    }

    static std::uint32_t
    slotOf(EventId id)
    {
        return static_cast<std::uint32_t>(id >> 32);
    }

    static std::uint32_t
    genOf(EventId id)
    {
        return static_cast<std::uint32_t>(id);
    }

    Slot &
    slotAt(std::uint32_t slot)
    {
        return _chunks[slot >> kSlotChunkShift]
                      [slot & (kSlotChunk - 1)];
    }

    const Slot &
    slotAt(std::uint32_t slot) const
    {
        return _chunks[slot >> kSlotChunkShift]
                      [slot & (kSlotChunk - 1)];
    }

    std::uint32_t
    allocSlot()
    {
        if (!_freeSlots.empty()) {
            const std::uint32_t slot = _freeSlots.back();
            _freeSlots.pop_back();
            return slot;
        }
        if (_slotCount == _chunks.size() * kSlotChunk)
            _chunks.push_back(
                std::make_unique<Slot[]>(kSlotChunk));
        return static_cast<std::uint32_t>(_slotCount++);
    }

    /** @{ 4-ary min-heap over Keys (root at 0; children of i are
     *  4i+1 .. 4i+4). Shape never affects pop order -- fires_before
     *  is a strict total order. */
    void
    siftUp(std::size_t i)
    {
        const Key k = _heap[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) >> 2;
            if (!fires_before(k, _heap[parent]))
                break;
            _heap[i] = _heap[parent];
            i = parent;
        }
        _heap[i] = k;
    }

    void
    siftDown(std::size_t i)
    {
        const std::size_t n = _heap.size();
        const Key k = _heap[i];
        while (true) {
            const std::size_t first = (i << 2) + 1;
            if (first >= n)
                break;
            std::size_t best = first;
            const std::size_t last = std::min(first + 4, n);
            for (std::size_t c = first + 1; c < last; ++c) {
                if (fires_before(_heap[c], _heap[best]))
                    best = c;
            }
            if (!fires_before(_heap[best], k))
                break;
            _heap[i] = _heap[best];
            i = best;
        }
        _heap[i] = k;
    }

    void
    removeTop()
    {
        _heap.front() = _heap.back();
        _heap.pop_back();
        if (!_heap.empty())
            siftDown(0);
    }
    /** @} */

    /**
     * Filter every cancelled key out of the heap once they outnumber
     * the live ones by more than kCompactSlack, then re-heapify
     * bottom-up. A pass runs only when cancelled keys are the
     * majority, and each of them is a cancel() since the last pass,
     * so its linear cost is O(1) amortized per cancel; a queue that
     * never cancels never compacts.
     *
     * Safe from inside a firing closure: the firing slot has already
     * left the heap and is not on _freeSlots, so it is untouched. A
     * cancelled slot returns to _freeSlots only here or in
     * skipCancelled(), i.e. only once its key has left the heap.
     */
    void
    compactIfSparse()
    {
        if (_heap.size() - _live > _live + kCompactSlack)
            compact();
    }

    /** The pass itself, out of line so it stays off the inlined
     *  fire path. */
    void compact();

    /** Drop cancelled keys sitting at the top of the heap. */
    void
    skipCancelled()
    {
        while (!_heap.empty() &&
               !slotAt(_heap.front().slot).live) {
            _freeSlots.push_back(_heap.front().slot);
            removeTop();
        }
    }

    std::vector<Key> _heap;
    std::vector<std::unique_ptr<Slot[]>> _chunks;
    std::size_t _slotCount = 0;
    std::vector<std::uint32_t> _freeSlots;
    std::uint64_t _seq = 0;
    std::size_t _live = 0;
};

/**
 * The simulation driver: owns the event queue and the current time.
 *
 * Components hold a reference to the Simulator, schedule relative or
 * absolute events, and read now(). run() drains events until the
 * queue is empty or a horizon is reached.
 */
class Simulator
{
  public:
    Simulator() = default;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /** Schedule @p fn at absolute time @p when (>= now()). */
    template <typename F>
    EventId
    schedule(Tick when, F &&fn)
    {
        if (when < _now)
            panicScheduledInPast(when, _now);
        return _queue.schedule(when, std::forward<F>(fn));
    }

    /** Schedule @p fn @p delay ticks from now. */
    template <typename F>
    EventId
    scheduleIn(Tick delay, F &&fn)
    {
        return schedule(_now + delay, std::forward<F>(fn));
    }

    /** Cancel a pending event. */
    void cancel(EventId id) { _queue.cancel(id); }

    /**
     * Run until the queue is empty or simulated time would exceed
     * @p horizon. Events scheduled exactly at the horizon still run.
     *
     * @return the final simulated time (== horizon if it was hit).
     */
    Tick run(Tick horizon = kMaxTick);

    /** @return true if no events remain. */
    bool idle() const { return _queue.empty(); }

    /** Number of events executed so far. */
    std::uint64_t eventsExecuted() const { return _executed; }

    /** Direct access for tests. */
    EventQueue &queue() { return _queue; }

  private:
    [[noreturn]] static void panicScheduledInPast(Tick when,
                                                  Tick now);

    EventQueue _queue;
    Tick _now = 0;
    std::uint64_t _executed = 0;
};

} // namespace aw::sim

#endif // AW_SIM_EVENT_QUEUE_HH
