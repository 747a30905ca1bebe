#include "sim/event_queue.hh"

#include "sim/logging.hh"

namespace aw::sim {

void
Simulator::panicScheduledInPast(Tick when, Tick now)
{
    panic("scheduling event in the past: when=%llu now=%llu",
          static_cast<unsigned long long>(when),
          static_cast<unsigned long long>(now));
}

void
EventQueue::compact()
{
    std::size_t kept = 0;
    for (const Key &k : _keys) {
        if (slotAt(k.slot).live)
            _keys[kept++] = k;
        else
            _freeSlots.push_back(k.slot);
    }
    _keys.resize(kept);
}

Tick
Simulator::run(Tick horizon)
{
    // Events fire in place inside the queue's slab -- the clock
    // advances via the pre-invoke hook, and no closure is ever
    // moved or copied on the way to its invocation.
    while (_queue.fireNext(horizon, [this](Tick when) {
        _now = when;
        ++_executed;
    })) {
    }
    if (!_queue.empty()) {
        // Stopped by the horizon with events still pending.
        _now = horizon;
        return _now;
    }
    if (horizon != kMaxTick && horizon > _now)
        _now = horizon;
    return _now;
}

} // namespace aw::sim
