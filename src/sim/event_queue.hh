/**
 * @file
 * Discrete-event scheduling: EventQueue and Simulator.
 *
 * The kernel is deliberately small: events are closures scheduled at
 * absolute ticks; ties are broken by a monotonic sequence number so
 * same-tick events fire in scheduling order as a structural
 * guarantee, not an accident of storage layout. Events can be
 * cancelled through the EventId returned at scheduling time.
 *
 * Layout is optimized for the simulator's hot loop:
 *
 *  - a flat event set: small POD keys (tick, sequence, slot) kept in
 *    one vector sorted descending, so the next event is the back
 *    element -- popped with no sift -- and a schedule is a binary
 *    search plus a short memmove of 24-byte keys, never of the
 *    closures. A simulator's queue holds O(cores) live keys (each
 *    core's next arrival, idle timer and service completion), where
 *    a shift over a few cache lines costs less than a heap's sifts;
 *  - closures live in a chunked slab with stable addresses and are
 *    constructed, invoked and destroyed in place (zero moves and
 *    zero allocations per steady-state event; see sim/callback.hh);
 *  - cancellation is an O(1) slot invalidation -- no hash table
 *    anywhere in the kernel -- and the set stays within a constant
 *    factor of the live events: once cancelled keys outnumber live
 *    ones by more than kCompactSlack, one stable linear pass filters
 *    them out, so a long-dated timer cancelled early (an idle core's
 *    promotion check) is not shifted around afterwards.
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
 * destroyed right away. Its key is dropped when it surfaces or,
 * if cancelled keys pile up first, by a compaction: the set never
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
        const Key k{when, ++_seq, slot};
        // Descending order: the new key goes after every key that
        // fires after it.
        _keys.insert(std::upper_bound(_keys.begin(), _keys.end(), k,
                                      fires_after),
                     k);
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
        // the key stays until it surfaces or a compaction.
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

    /** Keys held, live and cancelled: at most
     *  2 * size() + kCompactSlack. */
    std::size_t keyCount() const { return _keys.size(); }

    /** Cancelled keys tolerated beyond the live count before the
     *  set is compacted. */
    static constexpr std::size_t kCompactSlack = 32;

    /**
     * Tick of the next live event.
     * @return kMaxTick when the queue is empty.
     */
    Tick
    nextTick() const
    {
        const_cast<EventQueue *>(this)->skipCancelled();
        return _keys.empty() ? kMaxTick : _keys.back().when;
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
        const Key top = _keys.back();
        _keys.pop_back();
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
        if (_keys.empty() || _keys.back().when > horizon)
            return false;
        const Key top = _keys.back();
        _keys.pop_back();
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
    /** Set key: 24 bytes, trivially copyable, moved without ever
     *  touching the closures. */
    struct Key
    {
        Tick when;
        std::uint64_t seq; //!< monotonic FIFO tie-breaker
        std::uint32_t slot;
    };

    /** "a fires after b": the strict total event order, reversed
     *  -- the order the keys are stored in. */
    static bool
    fires_after(const Key &a, const Key &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
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

    /**
     * Filter every cancelled key out of the set once they outnumber
     * the live ones by more than kCompactSlack, keeping the rest in
     * order (so nothing is re-sorted). A pass runs only when
     * cancelled keys are the majority, and each of them is a
     * cancel() since the last pass, so its linear cost is O(1)
     * amortized per cancel; a queue that never cancels never
     * compacts.
     *
     * Safe from inside a firing closure: the firing slot has already
     * left the set and is not on _freeSlots, so it is untouched. A
     * cancelled slot returns to _freeSlots only here or in
     * skipCancelled(), i.e. only once its key has left the set.
     */
    void
    compactIfSparse()
    {
        if (_keys.size() - _live > _live + kCompactSlack)
            compact();
    }

    /** The pass itself, out of line so it stays off the inlined
     *  fire path. */
    void compact();

    /** Drop cancelled keys sitting at the front of the order. */
    void
    skipCancelled()
    {
        while (!_keys.empty() && !slotAt(_keys.back().slot).live) {
            _freeSlots.push_back(_keys.back().slot);
            _keys.pop_back();
        }
    }

    std::vector<Key> _keys; //!< descending (when, seq): next at back
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
