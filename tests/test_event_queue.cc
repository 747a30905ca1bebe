/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace {

using namespace aw::sim;

TEST(EventQueue, OrdersByTime)
{
    EventQueue q;
    std::vector<int> fired;
    q.schedule(30, [&] { fired.push_back(3); });
    q.schedule(10, [&] { fired.push_back(1); });
    q.schedule(20, [&] { fired.push_back(2); });
    while (!q.empty())
        q.pop().cb();
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> fired;
    for (int i = 0; i < 5; ++i)
        q.schedule(42, [&fired, i] { fired.push_back(i); });
    while (!q.empty())
        q.pop().cb();
    EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool fired = false;
    const EventId id = q.schedule(10, [&] { fired = true; });
    q.schedule(20, [] {});
    q.cancel(id);
    while (!q.empty())
        q.pop().cb();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireIsNoop)
{
    EventQueue q;
    const EventId id = q.schedule(10, [] {});
    q.pop().cb();
    q.cancel(id); // must not disturb anything
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, CancelUnknownIdIsNoop)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.cancel(999999);
    q.cancel(kInvalidEventId);
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, PendingTracksLifecycle)
{
    EventQueue q;
    const EventId id = q.schedule(5, [] {});
    EXPECT_TRUE(q.pending(id));
    q.pop();
    EXPECT_FALSE(q.pending(id));
}

TEST(EventQueue, NextTickSkipsCancelled)
{
    EventQueue q;
    const EventId early = q.schedule(10, [] {});
    q.schedule(20, [] {});
    q.cancel(early);
    EXPECT_EQ(q.nextTick(), Tick(20));
}

TEST(EventQueue, EmptyQueueNextTickIsMax)
{
    EventQueue q;
    EXPECT_EQ(q.nextTick(), kMaxTick);
    EXPECT_TRUE(q.empty());
}

TEST(Simulator, RunsToCompletion)
{
    Simulator simr;
    int count = 0;
    simr.schedule(100, [&] { ++count; });
    simr.schedule(200, [&] { ++count; });
    const Tick end = simr.run();
    EXPECT_EQ(count, 2);
    EXPECT_EQ(end, Tick(200));
    EXPECT_EQ(simr.eventsExecuted(), 2u);
}

TEST(Simulator, HorizonStopsExecution)
{
    Simulator simr;
    int count = 0;
    simr.schedule(100, [&] { ++count; });
    simr.schedule(200, [&] { ++count; });
    simr.schedule(300, [&] { ++count; });
    const Tick end = simr.run(250);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(end, Tick(250));
    // Resume to drain the rest.
    simr.run();
    EXPECT_EQ(count, 3);
}

TEST(Simulator, EventAtHorizonRuns)
{
    Simulator simr;
    bool fired = false;
    simr.schedule(100, [&] { fired = true; });
    simr.run(100);
    EXPECT_TRUE(fired);
}

TEST(Simulator, ScheduleInIsRelative)
{
    Simulator simr;
    Tick fired_at = 0;
    simr.schedule(50, [&] {
        simr.scheduleIn(25, [&] { fired_at = simr.now(); });
    });
    simr.run();
    EXPECT_EQ(fired_at, Tick(75));
}

TEST(Simulator, NowAdvancesWithEvents)
{
    Simulator simr;
    std::vector<Tick> seen;
    simr.schedule(10, [&] { seen.push_back(simr.now()); });
    simr.schedule(30, [&] { seen.push_back(simr.now()); });
    simr.run();
    EXPECT_EQ(seen, (std::vector<Tick>{10, 30}));
}

TEST(Simulator, CascadedEvents)
{
    // Events scheduling further events, like the core FSM does.
    Simulator simr;
    int depth = 0;
    std::function<void()> chain = [&]() {
        if (++depth < 10)
            simr.scheduleIn(5, chain);
    };
    simr.scheduleIn(5, chain);
    simr.run();
    EXPECT_EQ(depth, 10);
    EXPECT_EQ(simr.now(), Tick(50));
}

TEST(SimulatorDeathTest, SchedulingInThePastPanics)
{
    Simulator simr;
    simr.schedule(100, [] {});
    simr.run();
    EXPECT_DEATH(simr.schedule(50, [] {}), "past");
}

TEST(Simulator, EmptyRunWithHorizonAdvancesTime)
{
    Simulator simr;
    const Tick end = simr.run(1234);
    EXPECT_EQ(end, Tick(1234));
    EXPECT_EQ(simr.now(), Tick(1234));
}

TEST(Simulator, CancelThroughSimulator)
{
    Simulator simr;
    bool fired = false;
    const EventId id = simr.schedule(10, [&] { fired = true; });
    simr.cancel(id);
    simr.run();
    EXPECT_FALSE(fired);
    EXPECT_TRUE(simr.idle());
}

// Regression suite for the structural same-tick FIFO guarantee: the
// sequence-number tie-break must hold through cancellations, slot
// reuse and interleaved scheduling, not just in the happy path.

TEST(EventQueueFifo, SameTickFifoSurvivesInterleavedCancels)
{
    EventQueue q;
    std::vector<int> fired;
    std::vector<EventId> ids;
    for (int i = 0; i < 8; ++i)
        ids.push_back(q.schedule(7, [&fired, i] {
            fired.push_back(i);
        }));
    // Cancel a prefix, middle and suffix entry; order of the
    // survivors must be untouched.
    q.cancel(ids[0]);
    q.cancel(ids[3]);
    q.cancel(ids[7]);
    while (!q.empty())
        q.pop().cb();
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 4, 5, 6}));
}

TEST(EventQueueFifo, SameTickFifoSurvivesSlotReuse)
{
    EventQueue q;
    std::vector<int> fired;
    // Churn slots first so later same-tick events land in recycled
    // slots in scrambled slot order.
    for (int i = 0; i < 5; ++i)
        q.schedule(1, [] {});
    while (!q.empty())
        q.pop().cb();
    for (int i = 0; i < 10; ++i)
        q.schedule(99, [&fired, i] { fired.push_back(i); });
    while (!q.empty())
        q.pop().cb();
    EXPECT_EQ(fired,
              (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueueFifo, LaterTickScheduledFirstStillFiresLater)
{
    EventQueue q;
    std::vector<int> fired;
    q.schedule(50, [&] { fired.push_back(50); });
    q.schedule(10, [&] { fired.push_back(10); });
    q.schedule(50, [&] { fired.push_back(51); });
    q.schedule(10, [&] { fired.push_back(11); });
    while (!q.empty())
        q.pop().cb();
    EXPECT_EQ(fired, (std::vector<int>{10, 11, 50, 51}));
}

TEST(EventQueueFifo, MixedTickStressMatchesReferenceOrder)
{
    // Deterministic pseudo-random schedule/pop interleavings vs a
    // reference executed order: (when, schedule index) ascending.
    EventQueue q;
    std::uint64_t lcg = 12345;
    auto rnd = [&lcg](std::uint64_t mod) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return (lcg >> 33) % mod;
    };
    struct Ref
    {
        Tick when;
        int seq;
    };
    std::vector<Ref> expected;
    std::vector<std::pair<Tick, int>> fired;
    int seq = 0;
    for (int round = 0; round < 50; ++round) {
        const int burst = 1 + static_cast<int>(rnd(6));
        for (int i = 0; i < burst; ++i) {
            const Tick when = 1000 + rnd(8); // heavy tick ties
            const int s = seq++;
            expected.push_back(Ref{when, s});
            q.schedule(when, [&fired, when, s] {
                fired.emplace_back(when, s);
            });
        }
    }
    while (!q.empty())
        q.pop().cb();
    std::stable_sort(expected.begin(), expected.end(),
                     [](const Ref &a, const Ref &b) {
                         if (a.when != b.when)
                             return a.when < b.when;
                         return a.seq < b.seq;
                     });
    ASSERT_EQ(fired.size(), expected.size());
    for (std::size_t i = 0; i < fired.size(); ++i) {
        EXPECT_EQ(fired[i].first, expected[i].when) << "at " << i;
        EXPECT_EQ(fired[i].second, expected[i].seq) << "at " << i;
    }
}

TEST(EventQueueFifo, PendingIsPerScheduleNotPerSlot)
{
    EventQueue q;
    const EventId first = q.schedule(5, [] {});
    q.pop();
    EXPECT_FALSE(q.pending(first));
    // The recycled slot's new event must not resurrect the old id.
    const EventId second = q.schedule(6, [] {});
    EXPECT_NE(first, second);
    EXPECT_FALSE(q.pending(first));
    EXPECT_TRUE(q.pending(second));
    q.cancel(first); // stale id: must not disturb the live event
    EXPECT_TRUE(q.pending(second));
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueFifo, CancelDestroysTheCallbackImmediately)
{
    // The closure's captures must be released at cancel() time, not
    // when the stale heap key eventually surfaces.
    auto token = std::make_shared<int>(42);
    std::weak_ptr<int> watch = token;
    EventQueue q;
    const EventId id = q.schedule(10, [held = std::move(token)] {
        (void)held;
    });
    q.schedule(20, [] {});
    EXPECT_FALSE(watch.expired());
    q.cancel(id);
    EXPECT_TRUE(watch.expired());
    while (!q.empty())
        q.pop().cb();
}

TEST(EventQueueFifo, LargeCaptureFallsBackToHeapCorrectly)
{
    // Captures beyond the inline buffer take the heap path; the
    // behavior contract is identical.
    EventQueue q;
    std::array<std::uint64_t, 32> payload{};
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = i * 3 + 1;
    std::uint64_t sum = 0;
    q.schedule(4, [payload, &sum] {
        for (const auto v : payload)
            sum += v;
    });
    q.pop().cb();
    EXPECT_EQ(sum, 32u * 0 + [&] {
        std::uint64_t s = 0;
        for (std::size_t i = 0; i < 32; ++i)
            s += i * 3 + 1;
        return s;
    }());
}

TEST(EventQueueFifo, SelfCancelDuringCallbackIsANoop)
{
    Simulator simr;
    int fired = 0;
    EventId self = kInvalidEventId;
    self = simr.schedule(10, [&] {
        ++fired;
        simr.cancel(self); // already firing: must be harmless
    });
    simr.schedule(20, [&] { ++fired; });
    simr.run();
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(simr.idle());
}

// Compaction: cancelled keys must stop costing heap work once they
// outnumber the live ones, without moving the (when, seq) fire order
// or recycling a slot whose key is still in the heap.

TEST(EventQueueCompaction, CancelledTimersAreEvictedFromTheHeap)
{
    // The idle-promotion pattern: every live event arms a long-dated
    // timer that is cancelled long before it is due.
    EventQueue q;
    std::vector<EventId> timers;
    for (int i = 0; i < 1000; ++i) {
        q.schedule(10 + i, [] {});
        timers.push_back(q.schedule(1000000 + i, [] {}));
        q.cancel(timers.back());
        EXPECT_LE(q.keyCount(), 2 * q.size() + EventQueue::kCompactSlack)
            << "after cancel " << i;
    }
    EXPECT_EQ(q.size(), 1000u);
    for (const EventId id : timers)
        EXPECT_FALSE(q.pending(id));
    Tick last = 0;
    while (!q.empty()) {
        const auto ev = q.pop();
        EXPECT_LT(ev.when, 1000000u);
        EXPECT_GT(ev.when, last);
        last = ev.when;
        EXPECT_LE(q.keyCount(), 2 * q.size() + EventQueue::kCompactSlack);
    }
}

TEST(EventQueueCompaction, DrainingLiveEventsKeepsTheKeyBound)
{
    // Cancels alone stay under the trigger; the pops that follow
    // shrink the live count until the cancelled keys dominate.
    EventQueue q;
    for (int i = 0; i < 40; ++i)
        q.schedule(1 + i, [] {});
    for (int i = 0; i < 60; ++i)
        q.cancel(q.schedule(500 + i, [] {}));
    EXPECT_EQ(q.keyCount(), 100u);
    while (!q.empty()) {
        q.pop().cb();
        EXPECT_LE(q.keyCount(), 2 * q.size() + EventQueue::kCompactSlack);
    }
    EXPECT_EQ(q.nextTick(), kMaxTick);
    EXPECT_EQ(q.keyCount(), 0u);
}

TEST(EventQueueCompaction, RandomScheduleCancelMatchesAReferenceModel)
{
    // Seeded random interleavings of schedule and cancel, from
    // outside the run loop and from inside firing closures, checked
    // against a std::set of pending (when, seq) keys: the kernel must
    // fire exactly the model's events in the model's order while
    // holding at most 2 * size() + kCompactSlack keys.
    Simulator simr;
    EventQueue &q = simr.queue();
    std::mt19937_64 rng(20221001);
    auto draw = [&rng](std::uint64_t n) { return rng() % n; };

    using Key = std::pair<Tick, std::uint64_t>; // (when, seq)
    std::set<Key> model;       // pending events
    std::set<Key> lazyCancels; // keys a lazy-only heap would still hold
    std::vector<std::pair<EventId, Key>> handles;
    std::uint64_t seq = 0;
    std::uint64_t fired = 0;
    std::uint64_t cancelled = 0;
    std::size_t maxKeys = 0;
    std::size_t maxLazyKeys = 0;

    auto checkBound = [&] {
        EXPECT_EQ(q.size(), model.size());
        EXPECT_LE(q.keyCount(),
                  2 * q.size() + EventQueue::kCompactSlack);
        maxKeys = std::max(maxKeys, q.keyCount());
        maxLazyKeys =
            std::max(maxLazyKeys, model.size() + lazyCancels.size());
    };

    std::function<std::pair<EventId, Key>(Tick)> arm;
    std::vector<std::pair<EventId, Key>> timers; // armed, far-future
    auto cancel = [&](EventId id, const Key &key) {
        ASSERT_EQ(q.pending(id), model.count(key) == 1);
        if (model.erase(key) == 1) {
            lazyCancels.insert(key);
            ++cancelled;
        }
        simr.cancel(id);
        checkBound();
    };
    auto act = [&] {
        const Tick now = simr.now();
        switch (draw(8)) {
          case 0:
          case 1: // far-future timer, usually cancelled before due
            timers.push_back(arm(now + 4000 + draw(4000)));
            break;
          case 2: // same-tick ties, including the current tick
            arm(now + draw(2));
            arm(now + draw(2));
            break;
          case 3: // near event
            arm(now + 1 + draw(50));
            break;
          default: // half of all actions cancel
            if (!timers.empty() && draw(8) != 0) {
                // The promotion pattern: cancel an armed timer.
                const std::size_t i = draw(timers.size());
                const auto [id, key] = timers[i];
                timers[i] = timers.back();
                timers.pop_back();
                cancel(id, key);
            } else if (!handles.empty()) {
                // Any recent event; stale ids included.
                const auto &[id, key] = handles[draw(handles.size())];
                cancel(id, key);
            }
            break;
        }
    };
    arm = [&](Tick when) {
        const Key key{when, seq++};
        const EventId id = simr.schedule(when, [&, key] {
            ASSERT_FALSE(model.empty());
            EXPECT_EQ(*model.begin(), key) << "fired out of order";
            model.erase(model.begin());
            lazyCancels.erase(lazyCancels.begin(),
                              lazyCancels.lower_bound(key));
            ++fired;
            checkBound();
            // Closures schedule and cancel too, compaction included.
            if (seq < 40000) {
                const std::uint64_t n = draw(3);
                for (std::uint64_t j = 0; j < n; ++j)
                    act();
            }
        });
        model.insert(key);
        handles.emplace_back(id, key);
        if (handles.size() > 64)
            handles.erase(handles.begin(), handles.begin() + 32);
        checkBound();
        return std::pair{id, key};
    };

    for (int round = 0; round < 400; ++round) {
        for (int j = 0; j < 40; ++j)
            act();
        simr.run(simr.now() + 1 + draw(30));
    }
    simr.run();

    EXPECT_TRUE(model.empty());
    EXPECT_TRUE(simr.idle());
    EXPECT_EQ(fired + cancelled, seq);
    EXPECT_EQ(simr.eventsExecuted(), fired);
    EXPECT_GT(cancelled, seq / 4);
    // Without compaction the heap would have grown far past the
    // bound the kernel kept.
    EXPECT_GT(maxLazyKeys, 4 * maxKeys)
        << "maxLazyKeys=" << maxLazyKeys << " maxKeys=" << maxKeys;
}

} // namespace
