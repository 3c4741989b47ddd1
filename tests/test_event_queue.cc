/** @file Event queue kernel tests. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "src/sim/event_queue.hh"

using namespace pcsim;

TEST(EventQueue, StartsAtZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.numPending(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    EXPECT_EQ(eq.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, TiesBreakInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&]() {
        eq.scheduleIn(50, [&]() { seen = eq.curTick(); });
    });
    eq.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> chain = [&]() {
        if (++count < 10)
            eq.scheduleIn(1, chain);
    };
    eq.scheduleIn(1, chain);
    EXPECT_EQ(eq.run(), 10u);
    EXPECT_EQ(eq.curTick(), 10u);
}

TEST(EventQueue, RunHonoursLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() { ++fired; });
    eq.schedule(20, [&]() { ++fired; });
    eq.schedule(30, [&]() { ++fired; });
    EXPECT_EQ(eq.run(20), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.numPending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, StopRequestHaltsExecution)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() {
        ++fired;
        eq.requestStop();
    });
    eq.schedule(20, [&]() { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.numPending(), 1u);
}

TEST(EventQueue, StepExecutesOneEvent)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&]() { ++fired; });
    eq.schedule(2, [&]() { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq;
    eq.schedule(10, []() {});
    eq.schedule(5, []() {});
    eq.run(7);
    eq.reset();
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, []() {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, []() {}), "past");
}

TEST(EventQueue, SameTickSchedulingAllowed)
{
    EventQueue eq;
    bool ran = false;
    eq.schedule(10, [&]() {
        eq.schedule(10, [&]() { ran = true; }); // now is legal
    });
    eq.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, StepConsumesPendingStopWithoutExecuting)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&]() { ++fired; });
    eq.requestStop();
    EXPECT_TRUE(eq.stopRequested());
    // The pending request is consumed: step() returns false once and
    // leaves the event in place.
    EXPECT_FALSE(eq.step());
    EXPECT_FALSE(eq.stopRequested());
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.numPending(), 1u);
    // With the request consumed, stepping resumes normally.
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, RunClearsStaleStopRequest)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&]() { ++fired; });
    // A request left over from before run() must not suppress it.
    eq.requestStop();
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.stopRequested());
}

TEST(EventQueue, FarFutureEventsCrossWindows)
{
    // Deltas far beyond the horizon exercise the overflow heap and
    // its migration into the ring.
    EventQueue eq;
    std::vector<Tick> seen;
    for (Tick t : {Tick(1), Tick(5000), Tick(70000), Tick(4096),
                   Tick(1000000), Tick(4095)})
        eq.schedule(t, [&seen, &eq]() { seen.push_back(eq.curTick()); });
    eq.run();
    EXPECT_EQ(seen, (std::vector<Tick>{1, 4095, 4096, 5000, 70000,
                                       1000000}));
    EXPECT_GT(eq.stats().overflowEvents, 0u);
    EXPECT_GT(eq.stats().windowAdvances, 0u);
}

TEST(EventQueue, SameTickFifoSurvivesWindowMigration)
{
    // Two events on one far-future tick, interleaved with a nearer
    // event whose callback appends a third to the same far tick. All
    // three must still fire in schedule order after migrating from
    // the overflow heap into the calendar ring.
    EventQueue eq;
    const Tick far = 123456;
    std::vector<int> order;
    eq.schedule(far, [&]() { order.push_back(0); });
    eq.schedule(10, [&]() {
        eq.schedule(far, [&]() { order.push_back(2); });
    });
    eq.schedule(far, [&]() { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, NearEventsStayInTheRingAcrossAlignedBoundaries)
{
    // The ring slides with curTick: an event 100 ticks ahead of tick
    // 4090 stays on the O(1) path although it lies in the next
    // 4096-tick block.
    EventQueue eq;
    std::vector<Tick> seen;
    eq.schedule(4090, [&]() {
        seen.push_back(eq.curTick());
        eq.scheduleIn(100, [&]() { seen.push_back(eq.curTick()); });
    });
    eq.run();
    EXPECT_EQ(seen, (std::vector<Tick>{4090, 4190}));
    EXPECT_EQ(eq.stats().overflowEvents, 0u);
    EXPECT_EQ(eq.stats().windowAdvances, 0u);
}

namespace
{

/**
 * Queue a far event at tick horizon + 50 from tick 0 (heap path),
 * then let @p partner queue another event for the same tick in the
 * same position from tick 51, the first tick whose horizon covers it.
 * The far event must have migrated into the ring on the advance to
 * tick 51, ahead of anything tick 51 queues, so it runs first.
 * @p far_at queues the far event; @p partner runs at tick 51.
 */
void
checkMigrationKeepsFifo(
    const std::function<void(EventQueue &, Tick, std::vector<char> &)>
        &far_at,
    const std::function<void(EventQueue &, Tick, std::vector<char> &)>
        &partner)
{
    const Tick far = EventQueue::horizon + 50;
    EventQueue eq;
    std::vector<char> order;
    far_at(eq, far, order);
    EXPECT_EQ(eq.stats().overflowEvents, 1u);
    eq.schedule(50, [&]() { EXPECT_EQ(eq.stats().windowAdvances, 0u); });
    eq.schedule(51, [&]() {
        EXPECT_EQ(eq.stats().windowAdvances, 1u);
        partner(eq, far, order);
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<char>{'f', 'p'}));
    EXPECT_EQ(eq.stats().overflowEvents, 1u);
    EXPECT_EQ(eq.stats().windowAdvances, 1u);
}

} // namespace

TEST(EventQueue, MigrationKeepsFifoAgainstAPlainEvent)
{
    // A plain schedule from tick 51 is a normal event inserted at 51.
    checkMigrationKeepsFifo(
        [](EventQueue &eq, Tick far, std::vector<char> &order) {
            eq.schedule(far, EventOrder{51, false},
                        [&order]() { order.push_back('f'); });
        },
        [](EventQueue &eq, Tick far, std::vector<char> &order) {
            eq.schedule(far, [&order]() { order.push_back('p'); });
        });
}

TEST(EventQueue, MigrationKeepsFifoAgainstAnEarlyPositionedEvent)
{
    // Two remote deliveries arriving at the same tick, positioned
    // EventOrder{arrive, true} like the network queues them.
    const Tick arrive = EventQueue::horizon;
    checkMigrationKeepsFifo(
        [arrive](EventQueue &eq, Tick far, std::vector<char> &order) {
            eq.schedule(far, EventOrder{arrive, true},
                        [&order]() { order.push_back('f'); });
        },
        [arrive](EventQueue &eq, Tick far, std::vector<char> &order) {
            eq.schedule(far, EventOrder{arrive, true},
                        [&order]() { order.push_back('p'); });
        });
}

TEST(EventQueue, MigrationKeepsFifoAgainstARearmedEvent)
{
    // Both queued by plain schedules at tick 0; the second runs at 51
    // and re-arms itself for the far tick in its own position.
    checkMigrationKeepsFifo(
        [](EventQueue &eq, Tick far, std::vector<char> &order) {
            eq.schedule(far, [&order]() { order.push_back('f'); });
            eq.schedule(51, [&eq, &order, far]() {
                if (eq.curTick() == far)
                    order.push_back('p');
                else
                    eq.rearm(far);
            });
        },
        [](EventQueue &, Tick, std::vector<char> &) {});
}

TEST(EventQueue, ResetAllowsFullReuse)
{
    EventQueue eq;
    for (int round = 0; round < 3; ++round) {
        int fired = 0;
        eq.schedule(10, [&]() { ++fired; });
        eq.schedule(99999, [&]() { ++fired; }); // parked in overflow
        eq.run(50);                             // leaves one pending
        EXPECT_EQ(fired, 1);
        EXPECT_EQ(eq.numPending(), 1u);
        eq.reset();
        EXPECT_EQ(eq.curTick(), 0u);
        EXPECT_TRUE(eq.empty());
        EXPECT_EQ(eq.stats().scheduled, 0u);
    }
}

TEST(EventQueue, ResetDestroysPendingCallables)
{
    // Undelivered closures own resources; reset() must release them.
    auto token = std::make_shared<int>(42);
    EventQueue eq;
    eq.schedule(10, [token]() {});
    eq.schedule(999999, [token]() {}); // overflow copy
    EXPECT_EQ(token.use_count(), 3);
    eq.reset();
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, OversizedCallablesFallBackToHeap)
{
    EventQueue eq;
    std::array<std::uint64_t, 32> big{}; // 256 B > inlineCallbackBytes
    big[0] = 7;
    big[31] = 9;
    std::uint64_t sum = 0;
    auto token = std::make_shared<int>(0);
    eq.schedule(1, [big, token, &sum]() { sum = big[0] + big[31]; });
    EXPECT_EQ(eq.stats().heapCallbacks, 1u);
    eq.run();
    EXPECT_EQ(sum, 16u);
    EXPECT_EQ(token.use_count(), 1); // heap copy destroyed after run
}

TEST(EventQueue, StatsCountersTrackActivity)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(Tick(10 + i), []() {});
    EXPECT_EQ(eq.stats().scheduled, 5u);
    EXPECT_EQ(eq.stats().inlineCallbacks, 5u);
    EXPECT_EQ(eq.stats().peakPending, 5u);
    eq.run();
    EXPECT_EQ(eq.stats().executed, 5u);
}

namespace
{

/** Reference model: (tick, seq)-ordered std::priority_queue. */
struct RefEvent
{
    Tick when;
    std::uint64_t seq;
    int id;
};

struct RefLater
{
    bool
    operator()(const RefEvent &a, const RefEvent &b) const
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }
};

/** Deterministic xorshift so the stress test needs no <random>. */
struct XorShift
{
    std::uint64_t s;
    std::uint64_t
    next()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
};

} // namespace

TEST(EventQueue, RandomizedStressMatchesReferenceModel)
{
    // Drive the calendar queue and a textbook priority queue with the
    // same randomized schedule (mixed near/far deltas, same-tick
    // bursts, events scheduling events) and demand identical
    // execution order.
    for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
        EventQueue eq;
        std::priority_queue<RefEvent, std::vector<RefEvent>, RefLater>
            ref;
        std::uint64_t refSeq = 0;
        XorShift rng{seed};
        std::vector<int> gotOrder, refOrder;
        int nextId = 0;

        std::function<void(int, int)> spawn = [&](int id, int depth) {
            gotOrder.push_back(id);
            if (depth > 0 && (rng.next() & 3) == 0) {
                // Occasionally reschedule a child relative to now,
                // mirrored into the reference model with the same
                // delta and a fresh id.
                const std::uint64_t r = rng.next();
                Tick delta = (r & 1) ? Tick(r % 4096)
                                     : Tick(4096 + r % 100000);
                const int child = nextId++;
                ref.push(RefEvent{eq.curTick() + delta, refSeq++,
                                  child});
                eq.scheduleIn(delta,
                              [&, child, depth]() {
                                  spawn(child, depth - 1);
                              });
            }
        };

        for (int i = 0; i < 500; ++i) {
            const std::uint64_t r = rng.next();
            Tick when;
            switch (r & 3) {
            case 0: when = r % 64; break;            // same-tick bursts
            case 1: when = r % 4096; break;          // in-window
            case 2: when = 4096 + r % 262144; break; // few windows out
            default: when = r % 10000000; break;     // far future
            }
            const int id = nextId++;
            ref.push(RefEvent{when, refSeq++, id});
            eq.schedule(when, [&, id]() { spawn(id, 3); });
        }

        eq.run();

        while (!ref.empty()) {
            refOrder.push_back(ref.top().id);
            ref.pop();
        }
        // Children pushed into `ref` during execution drain here too:
        // the reference pop order is (when, seq), matching run().
        ASSERT_EQ(gotOrder.size(), refOrder.size()) << "seed " << seed;
        EXPECT_EQ(gotOrder, refOrder) << "seed " << seed;
        EXPECT_TRUE(eq.empty());
    }
}

TEST(EventQueue, EarlyPositionRunsBeforeNormalEventsOfItsInsertTick)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(10, [&]() { order.push_back(2); });
    // Scheduled last, still runs first: an early event inserted at
    // tick 0 goes ahead of the normal events inserted then.
    eq.schedule(10, EventOrder{0, true}, [&]() { order.push_back(0); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, EqualPositionsKeepScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, EventOrder{3, true},
                    [&order, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, KeyedEventsInterleaveAcrossTicks)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&]() { order.push_back(11); });
    eq.schedule(20, EventOrder{0, true}, [&]() { order.push_back(20); });
    eq.schedule(10, EventOrder{0, true}, [&]() { order.push_back(10); });
    eq.schedule(20, [&]() { order.push_back(21); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 21}));
}

TEST(EventQueue, PositionsHoldFromEventsAndAcrossWindows)
{
    EventQueue eq;
    std::vector<Tick> ticks;
    // Normal events at 50 and 1000000 (the latter in the overflow
    // heap), both inserted at tick 0; an event at tick 1 then queues
    // early events positioned at tick 0, which run ahead of each.
    eq.schedule(50, [&]() { ticks.push_back(0); });
    eq.schedule(1000000, [&]() { ticks.push_back(1); });
    eq.schedule(1, [&]() {
        eq.schedule(1000000, EventOrder{0, true},
                    [&]() { ticks.push_back(eq.curTick()); });
        eq.schedule(50, EventOrder{0, true},
                    [&]() { ticks.push_back(eq.curTick()); });
    });
    eq.run();
    EXPECT_EQ(ticks, (std::vector<Tick>{50, 0, 1000000, 1}));
}

TEST(EventQueue, PeekNextTickSeesKeyedEvents)
{
    EventQueue eq;
    Tick when = 0;
    EXPECT_FALSE(eq.peekNextTick(when));
    eq.schedule(30, []() {});
    ASSERT_TRUE(eq.peekNextTick(when));
    EXPECT_EQ(when, 30u);
    eq.schedule(10, EventOrder{5, true}, []() {});
    ASSERT_TRUE(eq.peekNextTick(when));
    EXPECT_EQ(when, 10u);
    eq.run();
    EXPECT_FALSE(eq.peekNextTick(when));
}

TEST(EventQueue, PastPositionTakesItsInsertTickPlace)
{
    EventQueue eq;
    std::vector<char> order;
    eq.schedule(100, [&]() { order.push_back('a'); }); // inserted at 0
    eq.schedule(10, [&]() {
        eq.schedule(100, [&]() { order.push_back('b'); });
    });
    eq.schedule(20, [&]() {
        eq.schedule(100, [&]() { order.push_back('c'); });
    });
    eq.schedule(30, [&]() {
        // Between b (10) and c (20); an equal position goes last.
        eq.schedule(100, EventOrder{15, false},
                    [&]() { order.push_back('x'); });
        eq.schedule(100, EventOrder{10, false},
                    [&]() { order.push_back('y'); });
        eq.schedule(100, EventOrder{30, false},
                    [&]() { order.push_back('z'); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'y', 'x', 'c', 'z'}));
}

TEST(EventQueue, PastPositionHoldsAcrossWindows)
{
    EventQueue eq;
    std::vector<char> order;
    eq.schedule(10000, [&]() { order.push_back('a'); });
    eq.schedule(50, [&]() {
        eq.schedule(10000, [&]() { order.push_back('c'); });
    });
    eq.schedule(100, [&]() {
        eq.schedule(10000, EventOrder{20, false},
                    [&]() { order.push_back('b'); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c'}));
    EXPECT_EQ(eq.stats().scheduled, 5u);
}

TEST(EventQueue, FuturePositionGoesAheadOfLaterInserts)
{
    // A remote delivery queued at send time, positioned where its
    // arrival tick (50) would have queued it: after normal events
    // inserted before 50, ahead of those inserted at 50 or later.
    EventQueue eq;
    std::vector<char> order;
    eq.schedule(100, EventOrder{50, true}, [&]() { order.push_back('d'); });
    eq.schedule(40, [&]() {
        eq.schedule(100, [&]() { order.push_back('m'); });
    });
    eq.schedule(50, [&]() {
        eq.schedule(100, [&]() { order.push_back('n'); });
        eq.schedule(100, EventOrder{50, true},
                    [&]() { order.push_back('e'); });
    });
    eq.schedule(100, [&]() { order.push_back('a'); }); // inserted at 0
    eq.run();
    EXPECT_EQ(order, (std::vector<char>{'a', 'm', 'd', 'e', 'n'}));
}

TEST(EventQueueDeath, PositionAfterItsOwnTickPanics)
{
    EventQueue eq;
    EXPECT_DEATH(eq.schedule(10, EventOrder{11, true}, []() {}),
                 "schedule: event at 10 in position 11");
}

TEST(EventQueueDeath, PositionAheadOfTheRunningEventPanics)
{
    EventQueue eq;
    eq.schedule(10, [&]() {
        eq.schedule(10, EventOrder{0, true}, []() {});
    });
    EXPECT_DEATH(eq.run(), "schedule: event at 10 in position 0");
}

TEST(EventQueue, RunningOrderReportsThePosition)
{
    EventQueue eq;
    std::vector<EventOrder> seen;
    const auto record = [&]() { seen.push_back(eq.runningOrder()); };
    eq.schedule(5, [&]() {
        record();
        eq.schedule(20, EventOrder{12, true}, [&]() {
            record();
            // Plain children of an early event are normal events.
            eq.schedule(30, record);
        });
    });
    eq.run();
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0].insertTick, 0u);
    EXPECT_FALSE(seen[0].early);
    EXPECT_EQ(seen[1].insertTick, 12u);
    EXPECT_TRUE(seen[1].early);
    EXPECT_EQ(seen[2].insertTick, 20u);
    EXPECT_FALSE(seen[2].early);
}

TEST(EventQueue, PositionKeyOrdersEarlyBeforeNormal)
{
    EXPECT_LT((EventOrder{7, true}.key()), (EventOrder{7, false}.key()));
    EXPECT_LT((EventOrder{6, false}.key()), (EventOrder{7, true}.key()));
    for (const EventOrder o : {EventOrder{0, true}, EventOrder{9, false}}) {
        const EventOrder back = EventOrder::fromKey(o.key());
        EXPECT_EQ(back.insertTick, o.insertTick);
        EXPECT_EQ(back.early, o.early);
    }
}

TEST(EventQueue, RearmRunsTheSameEventAgainInItsPosition)
{
    EventQueue eq;
    std::vector<char> order;
    std::vector<EventOrder> seen;
    auto token = std::make_shared<int>(0);
    int runs = 0;
    eq.schedule(25, [&]() { order.push_back('a'); }); // inserted at 0
    eq.schedule(10, EventOrder{5, true}, [&, token]() {
        order.push_back('r');
        seen.push_back(eq.runningOrder());
        if (++runs == 1)
            eq.rearm(25);
    });
    eq.schedule(10, [&]() {
        eq.schedule(25, [&]() { order.push_back('b'); });
    });
    EXPECT_EQ(eq.run(), 4u); // the re-armed pass is not an event
    EXPECT_EQ(order, (std::vector<char>{'r', 'a', 'r', 'b'}));
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[1].insertTick, 5u);
    EXPECT_TRUE(seen[1].early);
    EXPECT_EQ(token.use_count(), 1); // destroyed once, after the rerun
    EXPECT_EQ(eq.stats().executed, 4u);
    EXPECT_EQ(eq.stats().scheduled, 4u);
    EXPECT_EQ(eq.stats().inlineCallbacks, 4u);
    EXPECT_EQ(eq.stats().rearms, 1u);
}

TEST(EventQueue, RearmCrossesWindows)
{
    EventQueue eq;
    std::vector<Tick> ticks;
    eq.schedule(10, [&]() {
        ticks.push_back(eq.curTick());
        if (ticks.size() == 1)
            eq.rearm(1000000);
    });
    eq.schedule(999999, [&]() { ticks.push_back(0); });
    eq.run();
    EXPECT_EQ(ticks, (std::vector<Tick>{10, 0, 1000000}));
    EXPECT_EQ(eq.stats().executed, 2u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueDeath, RearmAtTheCurrentTickPanics)
{
    EventQueue eq;
    eq.schedule(10, [&]() { eq.rearm(10); });
    EXPECT_DEATH(eq.run(), "rearm at 10 from tick 10");
}

namespace
{

/**
 * Plain, position-keyed (past, future, early and normal) and
 * far-future events, some spawning more and some re-arming: the run
 * order must be the stable sort of every queued (tick, position)
 * pair, a re-arm counting as a fresh insertion. With
 * @p horizon_edges, a share of the events is due within 32 ticks of
 * the horizon, and the queue runs in run(limit) windows with events
 * queued from outside between them, the way the sharded kernel
 * flushes cross-shard deliveries at its barriers.
 */
void
checkKeyedScheduleMatchesStableSort(std::uint64_t seed,
                                    bool horizon_edges)
{
    EventQueue eq;
    XorShift rng{seed};
    struct Queued
    {
        Tick when;
        std::uint64_t key;
        std::uint64_t seq;
        int id;
    };
    std::vector<Queued> queued;
    std::vector<int> got;
    int nextId = 0;

    const auto pickWhen = [&](Tick from) -> Tick {
        const std::uint64_t r = rng.next();
        if (horizon_edges && (r >> 61) < 3)
            return from + EventQueue::horizon - 32 + (r >> 8) % 65;
        switch (r & 3) {
        case 0: return from + r % 4;              // same-tick bursts
        case 1: return from + r % 4096;           // in-window
        case 2: return from + 4096 + r % 100000;  // a few windows out
        default: return from + r % 5000000;       // far future
        }
    };
    // Queue an event due at or after @p from (> curTick only from
    // outside a run).
    std::function<void(int, int, Tick)> queue = [&](int id, int depth,
                                                    Tick from) {
        const Tick now = eq.curTick();
        const Tick when = pickWhen(from);
        const std::uint64_t r = rng.next();
        EventOrder pos{now, false};
        const bool keyed = (r & 3) != 0;
        if (keyed && when > now) {
            // Anywhere from a while back to the event's own tick.
            const Tick back = std::min<Tick>(now, (r >> 2) % 300);
            pos.insertTick = now - back + (r >> 12) % (when - now + back + 1);
            pos.early = (r >> 40) & 1;
        }
        queued.push_back(Queued{when, pos.key(),
                                std::uint64_t(queued.size()), id});
        auto body = [&, id, depth, reruns = 0]() mutable {
            got.push_back(id);
            const std::uint64_t c = rng.next();
            if (reruns == 0 && (c & 7) == 0) {
                ++reruns;
                const Tick at = eq.curTick() + 1 + (c >> 3) % 9000;
                id = nextId++;
                queued.push_back(Queued{at, eq.runningOrder().key(),
                                        std::uint64_t(queued.size()),
                                        id});
                eq.rearm(at);
                return;
            }
            if (depth > 0 && (c & 0x30) == 0)
                queue(nextId++, depth - 1, eq.curTick());
        };
        if (keyed)
            eq.schedule(when, pos, std::move(body));
        else
            eq.schedule(when, std::move(body));
    };

    for (int i = 0; i < 400; ++i)
        queue(nextId++, 3, eq.curTick());
    if (horizon_edges) {
        Tick next;
        for (int stop = 0; stop < 300 && eq.peekNextTick(next); ++stop) {
            const Tick limit = next + rng.next() % (2 * EventQueue::horizon);
            eq.run(limit);
            for (int k = 0; k < 3; ++k)
                queue(nextId++, 1, limit + 1);
        }
    }
    eq.run();

    std::stable_sort(queued.begin(), queued.end(),
                     [](const Queued &a, const Queued &b) {
                         if (a.when != b.when)
                             return a.when < b.when;
                         return a.key < b.key;
                     });
    std::vector<int> want;
    for (const Queued &q : queued)
        want.push_back(q.id);
    EXPECT_EQ(got, want) << "seed " << seed;
    EXPECT_TRUE(eq.empty());
}

} // namespace

TEST(EventQueue, RandomizedKeyedScheduleMatchesStableSort)
{
    for (std::uint64_t seed : {3ull, 77ull, 0xfeedfaceull})
        checkKeyedScheduleMatchesStableSort(seed, false);
}

TEST(EventQueue, HorizonEdgesAndRunLimitsMatchStableSort)
{
    for (std::uint64_t seed : {5ull, 99ull, 0xc0ffeeull})
        checkKeyedScheduleMatchesStableSort(seed, true);
}

TEST(EventQueue, CreditElidedCountsModelEvents)
{
    EventQueue eq;
    eq.schedule(1, []() {});
    eq.run();
    eq.creditElided(7);
    EXPECT_EQ(eq.stats().executed, 8u);
    EXPECT_EQ(eq.stats().scheduled, 8u);
    EXPECT_EQ(eq.stats().inlineCallbacks, 8u);
    EXPECT_EQ(eq.stats().elided, 7u);
}

TEST(EventQueue, CreditFoldedCountsModelEvents)
{
    EventQueue eq;
    eq.schedule(1, []() {});
    eq.run();
    eq.creditFolded(3);
    EXPECT_EQ(eq.stats().executed, 4u);
    EXPECT_EQ(eq.stats().scheduled, 4u);
    EXPECT_EQ(eq.stats().inlineCallbacks, 4u);
    EXPECT_EQ(eq.stats().folded, 3u);
    EXPECT_EQ(eq.stats().elided, 0u);
}
