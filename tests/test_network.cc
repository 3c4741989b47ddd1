/** @file Topology and interconnect tests. */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/net/faults.hh"
#include "src/net/network.hh"
#include "src/net/topology.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/kernel.hh"
#include "src/sim/random.hh"

using namespace pcsim;

TEST(Topology, SixteenNodesRadix8)
{
    FatTreeTopology t(16, 8);
    EXPECT_EQ(t.depth(), 2u);
    EXPECT_EQ(t.hops(3, 3), 0u);
    EXPECT_EQ(t.hops(0, 7), 1u);  // same leaf router
    EXPECT_EQ(t.hops(0, 8), 2u);  // across the root
    EXPECT_EQ(t.hops(15, 9), 1u);
    EXPECT_EQ(t.hops(7, 8), 2u);
}

TEST(Topology, SymmetricHops)
{
    FatTreeTopology t(16, 8);
    for (NodeId a = 0; a < 16; ++a)
        for (NodeId b = 0; b < 16; ++b)
            EXPECT_EQ(t.hops(a, b), t.hops(b, a));
}

TEST(Topology, LargerSystems)
{
    FatTreeTopology t64(64, 8);
    EXPECT_EQ(t64.depth(), 2u);
    EXPECT_EQ(t64.hops(0, 63), 2u);
    FatTreeTopology t512(512, 8);
    EXPECT_EQ(t512.depth(), 3u);
    EXPECT_EQ(t512.hops(0, 511), 3u);
    EXPECT_EQ(t512.hops(0, 63), 2u);
    EXPECT_EQ(t512.hops(0, 7), 1u);
}

TEST(Topology, HopsMatchCommonAncestorLevel)
{
    // Reference: divide both ids by the radix until they meet; the
    // number of divisions is the common ancestor's level.
    for (unsigned radix : {2u, 4u, 8u, 16u}) {
        FatTreeTopology t(300, radix);
        for (NodeId a = 0; a < 300; a += 3)
            for (NodeId b = 0; b < 300; b += 5) {
                unsigned level = 0;
                for (unsigned x = a, y = b; x != y; x /= radix, y /= radix)
                    ++level;
                EXPECT_EQ(t.hops(a, b), level)
                    << "radix " << radix << " " << a << "->" << b;
            }
    }
}

TEST(Topology, RejectsNonPowerOfTwoRadix)
{
    EXPECT_DEATH(FatTreeTopology(16, 6), "power of two");
    EXPECT_DEATH(FatTreeTopology(16, 1), "power of two");
}

TEST(Message, SizesFollowPayload)
{
    Message m;
    m.type = MsgType::ReqShared;
    EXPECT_EQ(m.sizeBytes(), 32u); // header only
    m.type = MsgType::RespSharedData;
    EXPECT_EQ(m.sizeBytes(), 32u + 128u);
    m.type = MsgType::Update;
    EXPECT_EQ(m.sizeBytes(), 160u);
    m.type = MsgType::InvalAck;
    EXPECT_EQ(m.sizeBytes(), 32u);
}

namespace
{

/** Records deliveries with their ticks. */
struct Sink : MessageHandler
{
    struct Delivery
    {
        Message msg;
        Tick when;
    };
    EventQueue *eq = nullptr;
    std::vector<Delivery> got;

    void
    handleMessage(const Message &msg) override
    {
        got.push_back({msg, eq->curTick()});
    }
};

struct NetFixture : ::testing::Test
{
    EventQueue eq;
    NetworkConfig cfg;
    Network net{eq, 16, cfg};
    Sink sinks[16];

    void
    SetUp() override
    {
        for (int i = 0; i < 16; ++i) {
            sinks[i].eq = &eq;
            net.registerHandler(i, &sinks[i]);
        }
    }

    Message
    msg(NodeId src, NodeId dst, MsgType t = MsgType::ReqShared)
    {
        Message m;
        m.type = t;
        m.src = src;
        m.dst = dst;
        m.addr = 0x1000;
        return m;
    }
};

} // namespace

TEST_F(NetFixture, DeliveryLatencyMatchesHops)
{
    // 1 hop (same leaf): occupancy(8B/cycle? cfg: 32B/4Bpc = 8) +
    // 100 + occupancy.
    net.send(msg(0, 1));
    eq.run();
    ASSERT_EQ(sinks[1].got.size(), 1u);
    EXPECT_EQ(sinks[1].got[0].when, 8u + 100 + 8);

    // 2 hops (across leaves), issued at tick 116 after the drain.
    net.send(msg(0, 8));
    eq.run();
    ASSERT_EQ(sinks[8].got.size(), 1u);
    EXPECT_EQ(sinks[8].got[0].when,
              sinks[1].got[0].when + 8 + 2 * 100 + 8);
}

TEST_F(NetFixture, DataMessagesTakeLongerToSerialize)
{
    net.send(msg(0, 1, MsgType::RespSharedData)); // 160 B -> 40 cycles
    eq.run();
    EXPECT_EQ(sinks[1].got[0].when, 40u + 100 + 40);
}

TEST_F(NetFixture, LocalMessagesBypassTheWires)
{
    net.send(msg(3, 3));
    eq.run();
    ASSERT_EQ(sinks[3].got.size(), 1u);
    EXPECT_EQ(sinks[3].got[0].when, cfg.localLatency);
    EXPECT_EQ(net.numMessages(), 0u);
    EXPECT_EQ(net.numLocalMessages(), 1u);
}

using NetFixtureDeathTest = NetFixture;

TEST_F(NetFixtureDeathTest, OutOfRangeEndpointsPanic)
{
    // The sender's node picks the message pool, so its id is checked
    // before any lookup.
    EXPECT_DEATH(net.send(msg(16, 0)), "bad endpoints 16 -> 0");
    EXPECT_DEATH(net.send(msg(0, 16)), "bad endpoints 0 -> 16");
}

TEST_F(NetFixture, EgressPortSerializesInjection)
{
    // Two back-to-back sends from node 0 to different destinations:
    // the second is delayed by the first's occupancy.
    net.send(msg(0, 1));
    net.send(msg(0, 2));
    eq.run();
    EXPECT_EQ(sinks[1].got[0].when, 116u);
    EXPECT_EQ(sinks[2].got[0].when, 124u);
}

TEST_F(NetFixture, IngressPortSerializesEjection)
{
    net.send(msg(1, 0));
    net.send(msg(2, 0));
    eq.run();
    ASSERT_EQ(sinks[0].got.size(), 2u);
    EXPECT_EQ(sinks[0].got[1].when - sinks[0].got[0].when, 8u);
}

TEST_F(NetFixture, PointToPointOrderingHolds)
{
    // The protocol's writeback-race resolution depends on per-pair
    // FIFO delivery; hammer one pair with mixed sizes and check.
    for (int i = 0; i < 50; ++i) {
        Message m = msg(4, 9, (i % 3 == 0) ? MsgType::RespSharedData
                                           : MsgType::ReqShared);
        m.version = i;
        net.send(m);
    }
    eq.run();
    ASSERT_EQ(sinks[9].got.size(), 50u);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(sinks[9].got[i].msg.version,
                  static_cast<Version>(i));
}

TEST_F(NetFixture, StatsTrackMessagesAndBytes)
{
    net.send(msg(0, 1));
    net.send(msg(0, 2, MsgType::Update));
    eq.run();
    EXPECT_EQ(net.numMessages(), 2u);
    EXPECT_EQ(net.numBytes(), 32u + 160u);
    EXPECT_EQ(net.numByType(MsgType::Update), 1u);
    EXPECT_EQ(net.numByType(MsgType::ReqShared), 1u);
    net.resetStats(eq.curTick() + 1);
    EXPECT_EQ(net.numMessages(), 0u);
    EXPECT_EQ(net.numBytes(), 0u);
}

TEST_F(NetFixture, HopHistogram)
{
    net.send(msg(0, 1));  // 1 hop
    net.send(msg(0, 8));  // 2 hops
    net.send(msg(0, 9));  // 2 hops
    eq.run();
    EXPECT_EQ(net.hopHistogram().bucket(1), 1u);
    EXPECT_EQ(net.hopHistogram().bucket(2), 2u);
}

// Lazy ejection booking: one event per remote delivery, due at
// arrive + occupancy; the first of a node's events to run books every
// pending arrival up to its own in (arrive, src, seq) order, and a
// delivery booked later than its event re-arms once. The event totals
// still count one drain per distinct (node, arrival tick).

TEST_F(NetFixture, ContendedArrivalsRearmOnceInContentOrder)
{
    // Three one-hop requests sent at tick 0 all arrive at node 0 at
    // tick 8 + 100; send them out of source order.
    for (NodeId src : {3u, 1u, 2u})
        net.send(msg(src, 0));
    EXPECT_EQ(eq.numPending(), 3u); // one event per delivery
    eq.run();
    ASSERT_EQ(sinks[0].got.size(), 3u);
    for (unsigned i = 0; i < 3; ++i) {
        EXPECT_EQ(sinks[0].got[i].msg.src, i + 1);
        EXPECT_EQ(sinks[0].got[i].when, 108 + 8 * (i + 1));
    }
    // Three deliveries plus the folded drain of tick 108; the two
    // contended ones re-armed without counting.
    EXPECT_EQ(eq.stats().executed, 4u);
    EXPECT_EQ(eq.stats().scheduled, 4u);
    EXPECT_EQ(eq.stats().folded, 1u);
    EXPECT_EQ(eq.stats().rearms, 2u);
}

TEST_F(NetFixture, OutOfOrderArrivalTicksBookInTickOrder)
{
    // Arrival ticks at node 0, in send order: 208 (two hops), 108
    // (one hop), 208 again and 140 (a 160 B data message, between
    // the two).
    net.send(msg(8, 0));
    net.send(msg(1, 0));
    net.send(msg(9, 0));
    net.send(msg(2, 0, MsgType::RespSharedData));
    EXPECT_EQ(eq.numPending(), 4u);
    eq.run();
    // Three folded drains (108, 140, 208) and four deliveries; only
    // the second arrival at 208 found the port busy.
    EXPECT_EQ(eq.stats().executed, 3u + 4u);
    EXPECT_EQ(eq.stats().rearms, 1u);
    ASSERT_EQ(sinks[0].got.size(), 4u);
    const NodeId order[] = {1, 2, 8, 9};
    const Tick when[] = {116, 180, 216, 224};
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(sinks[0].got[i].msg.src, order[i]);
        EXPECT_EQ(sinks[0].got[i].when, when[i]);
    }

    // A later arrival is a fresh tick with a drain of its own.
    net.send(msg(1, 0));
    EXPECT_EQ(eq.numPending(), 1u);
    eq.run();
    EXPECT_EQ(sinks[0].got.size(), 5u);
    EXPECT_EQ(eq.stats().folded, 4u);
}

TEST_F(NetFixture, DeliveryRunsInItsArrivalTickPosition)
{
    // Nodes 1 and 2 -> 0 both arrive at 108; node 2's delivery is
    // booked at 124 and re-arms there. Each runs as if an early event
    // at the arrival tick had queued it: after events queued for its
    // tick before 108, ahead of those queued at 108 -- though the
    // re-arm itself happens at 116.
    net.send(msg(1, 0));
    net.send(msg(2, 0));
    std::vector<std::size_t> seen;
    const auto record = [&]() { seen.push_back(sinks[0].got.size()); };
    eq.schedule(107, [&]() { eq.schedule(116, record); });
    eq.schedule(108, [&]() {
        eq.schedule(116, record);
        eq.schedule(124, record);
    });
    eq.run();
    ASSERT_EQ(sinks[0].got.size(), 2u);
    EXPECT_EQ(sinks[0].got[0].when, 116u);
    EXPECT_EQ(sinks[0].got[1].when, 124u);
    // At 116: the probe from 107, the delivery, the probe from 108.
    // At 124: the re-armed delivery, then the probe from 108.
    EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(eq.stats().rearms, 1u);
}

TEST_F(NetFixture, BookingCoversEarlierArrivalsWhoseEventsComeLater)
{
    // Both arrive at node 0 at tick 140: a 160 B reply from node 2
    // sent at 0 (due at 180) and a 32 B request from node 3 sent at
    // 32 (due at 148). The request's event runs first, books the reply
    // ahead of itself (src 2 < 3) and re-arms behind it.
    net.send(msg(2, 0, MsgType::RespSharedData));
    eq.schedule(32, [&]() { net.send(msg(3, 0)); });
    eq.run();
    ASSERT_EQ(sinks[0].got.size(), 2u);
    EXPECT_EQ(sinks[0].got[0].msg.src, 2u);
    EXPECT_EQ(sinks[0].got[0].when, 180u);
    EXPECT_EQ(sinks[0].got[1].msg.src, 3u);
    EXPECT_EQ(sinks[0].got[1].when, 188u);
    // The send, one folded drain and two deliveries.
    EXPECT_EQ(eq.stats().executed, 4u);
    EXPECT_EQ(eq.stats().rearms, 1u);
}

TEST(NetworkShards, FlushTimeInsertionQueuesOneEventPerArrival)
{
    // 16 nodes, radix 8: nodes 0-7 on shard 0, 8-15 on shard 1.
    SimKernel kernel(ShardMap::leafAligned(16, 8, 2), 1,
                     1 + FatTreeTopology(16, 8)
                             .minCrossLeafLatencyTicks(100));
    ASSERT_EQ(kernel.numShards(), 2u);
    Network net(kernel.queue(0), 16);
    net.attachKernel(kernel);
    Sink sinks[16];
    for (NodeId n = 0; n < 16; ++n) {
        sinks[n].eq = &kernel.queueForNode(n);
        net.registerHandler(n, &sinks[n]);
    }
    Message m;
    m.type = MsgType::ReqShared;
    m.dst = 0;
    // Cross-shard sends park in the channel until the flush.
    for (NodeId src : {10u, 8u, 9u}) {
        m.src = src;
        net.send(m);
    }
    EXPECT_EQ(kernel.queue(0).numPending(), 0u);
    net.flushShard(0);
    EXPECT_EQ(kernel.queue(0).numPending(), 3u);
    net.flushShard(0); // channels are empty now
    EXPECT_EQ(kernel.queue(0).numPending(), 3u);

    // A same-shard send arriving at the same tick (100 + 8 + 100 =
    // 208) joins the flushed arrivals and ejects first (lowest
    // source), though its event was queued last.
    kernel.queue(0).schedule(100, [&]() {
        m.src = 1;
        net.send(m);
    });
    kernel.run();
    // The send, one folded drain and four deliveries.
    EXPECT_EQ(kernel.queue(0).stats().executed, 6u);
    EXPECT_EQ(kernel.queue(0).stats().folded, 1u);
    EXPECT_EQ(kernel.queue(0).stats().rearms, 3u);
    ASSERT_EQ(sinks[0].got.size(), 4u);
    const NodeId order[] = {1, 8, 9, 10};
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(sinks[0].got[i].msg.src, order[i]);
        EXPECT_EQ(sinks[0].got[i].when, 208 + 8 * (i + 1));
    }
}

namespace
{

/** A one-hop 160 B send from node 1 to node 0 whose source NI is free
 *  when sent and whose arrival finds node 0's NI stalled. */
struct StalledArrival
{
    Tick send = 0;
    Tick arrive = 0;
    Tick clear = 0;
};

StalledArrival
findStalledArrival(const FaultPlan &plan)
{
    for (Tick s = 0;; ++s) {
        const Tick arrive = s + 40 + 100;
        const Tick clear = plan.stallClearTick(0, arrive);
        if (plan.stallClearTick(1, s) == s && clear > arrive)
            return StalledArrival{s, arrive, clear};
    }
}

FaultConfig
allNodesStall()
{
    FaultConfig f;
    f.enabled = true;
    f.stallNodeFraction = 1.0;
    f.stallPeriod = 1000;
    f.stallDuration = 200;
    return f;
}

/** Send the stalled arrival, reset the stats at @p boundary (after
 *  every event before it ran) and finish the run. */
void
runWithResetAt(const FaultPlan &plan, const StalledArrival &sa,
               Tick boundary, std::uint64_t &delayed, Tick &extra,
               Tick &delivered)
{
    EventQueue eq;
    Network net(eq, 16);
    net.setFaultPlan(&plan);
    Sink sinks[16];
    for (NodeId n = 0; n < 16; ++n) {
        sinks[n].eq = &eq;
        net.registerHandler(n, &sinks[n]);
    }
    Message m;
    m.type = MsgType::RespSharedData;
    m.src = 1;
    m.dst = 0;
    eq.schedule(sa.send, [&]() { net.send(m); });
    eq.run(boundary - 1);
    net.resetStats(boundary);
    eq.run();
    ASSERT_EQ(sinks[0].got.size(), 1u);
    delivered = sinks[0].got[0].when;
    delayed = net.faultDelayedMessages();
    extra = net.faultExtraTicks();
}

} // namespace

TEST(NetworkFaults, ResetDropsArrivalsBeforeTheBoundaryBookedAfterIt)
{
    const FaultPlan plan(allNodesStall(), 16, Rng(5));
    const StalledArrival sa = findStalledArrival(plan);
    std::uint64_t delayed = 0;
    Tick extra = 0, delivered = 0;

    // The arrival precedes the boundary but is booked at its event,
    // arrive + 40, after it: the reset must still drop it, as it
    // dropped what a booking at the arrival tick had counted.
    runWithResetAt(plan, sa, sa.arrive + 1, delayed, extra, delivered);
    EXPECT_EQ(delivered, sa.clear + 40);
    EXPECT_EQ(delayed, 0u);
    EXPECT_EQ(extra, 0u);

    // An arrival at the boundary counts.
    runWithResetAt(plan, sa, sa.arrive, delayed, extra, delivered);
    EXPECT_EQ(delivered, sa.clear + 40);
    EXPECT_EQ(delayed, 1u);
    EXPECT_EQ(extra, sa.clear - sa.arrive);
}

// ---- Oracle: the heap-and-drain delivery model --------------------

namespace
{

struct SendSpec
{
    Tick at;
    NodeId src;
    NodeId dst;
    MsgType type;
};

struct Delivered
{
    Tick when = 0;
    NodeId node = invalidNode;
};

/**
 * The network's delivery model as one phase-0 drain event per distinct
 * (node, arrival tick): it runs ahead of every normal event of its
 * tick, books ejection for that tick's arrivals in (arrive, src, seq)
 * order and schedules each delivery. Events run in (tick, phase,
 * seq) order.
 */
struct DrainModel
{
    struct Ev
    {
        Tick when;
        int phase;
        std::uint64_t seq;
        std::function<void()> fn;
    };
    struct EvLater
    {
        bool
        operator()(const Ev &a, const Ev &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.phase != b.phase)
                return a.phase > b.phase;
            return a.seq > b.seq;
        }
    };
    struct Arrival
    {
        Tick arrive, occupancy, faultDelay;
        NodeId src;
        std::uint64_t seq;
        std::size_t msg;
        bool operator>(const Arrival &o) const
        {
            if (arrive != o.arrive)
                return arrive > o.arrive;
            if (src != o.src)
                return src > o.src;
            return seq > o.seq;
        }
    };

    NetworkConfig cfg;
    FatTreeTopology topo{16};
    const FaultPlan *faults = nullptr;
    std::priority_queue<Ev, std::vector<Ev>, EvLater> events;
    std::uint64_t evSeq = 0;
    std::uint64_t executed = 0;
    Tick now = 0;
    std::vector<Tick> egressFree = std::vector<Tick>(16, 0);
    std::vector<Tick> ingressFree = std::vector<Tick>(16, 0);
    std::vector<std::uint64_t> srcSeq = std::vector<std::uint64_t>(16, 0);
    std::map<std::pair<NodeId, NodeId>, Tick> lastArrive;
    std::vector<std::priority_queue<Arrival, std::vector<Arrival>,
                                    std::greater<Arrival>>>
        heaps{16};
    std::vector<std::set<Tick>> armed{16};
    std::vector<Delivered> out;
    std::vector<std::vector<std::size_t>> perNode{16};
    std::uint64_t faultDelayed = 0;

    void
    schedule(Tick when, int phase, std::function<void()> fn)
    {
        events.push(Ev{when, phase, evSeq++, std::move(fn)});
    }

    void
    deliver(std::size_t i, NodeId node)
    {
        out[i] = Delivered{now, node};
        perNode[node].push_back(i);
    }

    void
    send(std::size_t i, const SendSpec &s)
    {
        const std::uint64_t seq = ++srcSeq[s.src];
        if (s.src == s.dst) {
            schedule(now + cfg.localLatency, 1,
                     [this, i, s]() { deliver(i, s.dst); });
            return;
        }
        Message m;
        m.type = s.type;
        const Tick occ = std::max<Tick>(1, m.sizeBytes() /
                                               cfg.niBytesPerCycle);
        Tick inject = std::max(now, egressFree[s.src]);
        Tick fd = 0;
        if (faults) {
            const Tick clear = faults->stallClearTick(s.src, inject);
            fd += clear - inject;
            inject = clear;
        }
        egressFree[s.src] = inject + occ;
        const Tick extra =
            faults ? faults->extraLatency(s.src, s.dst, inject) : 0;
        fd += extra;
        Tick arrive =
            inject + occ + cfg.hopLatency * topo.hops(s.src, s.dst) + extra;
        if (faults && faults->anyLatencyFaults()) {
            Tick &last = lastArrive[{s.src, s.dst}];
            arrive = std::max(arrive, last);
            last = arrive;
        }
        heaps[s.dst].push(Arrival{arrive, occ, fd, s.src, seq, i});
        if (armed[s.dst].insert(arrive).second)
            schedule(arrive, 0, [this, dst = s.dst]() { drain(dst); });
    }

    void
    drain(NodeId dst)
    {
        armed[dst].erase(now);
        auto &h = heaps[dst];
        while (!h.empty() && h.top().arrive == now) {
            const Arrival a = h.top();
            h.pop();
            Tick eject = std::max(a.arrive, ingressFree[dst]);
            Tick fd = a.faultDelay;
            if (faults) {
                const Tick clear = faults->stallClearTick(dst, eject);
                fd += clear - eject;
                eject = clear;
            }
            ingressFree[dst] = eject + a.occupancy;
            faultDelayed += fd != 0;
            schedule(eject + a.occupancy, 1,
                     [this, i = a.msg, dst]() { deliver(i, dst); });
        }
    }

    void
    run(const std::vector<SendSpec> &sends)
    {
        out.assign(sends.size(), Delivered{});
        for (std::size_t i = 0; i < sends.size(); ++i)
            schedule(sends[i].at, 1,
                     [this, i, &sends]() { send(i, sends[i]); });
        while (!events.empty()) {
            Ev e = events.top();
            events.pop();
            now = e.when;
            e.fn();
            ++executed;
        }
    }
};

/** The real network under @p shards kernel shards, same sends. */
struct RealRun
{
    std::vector<Delivered> out;
    std::vector<std::vector<std::size_t>> perNode{16};
    EventQueueStats stats;
    std::uint64_t faultDelayed = 0;
};

struct IndexSink : MessageHandler
{
    EventQueue *eq = nullptr;
    NodeId node = 0;
    RealRun *run = nullptr;

    void
    handleMessage(const Message &msg) override
    {
        const std::size_t i = static_cast<std::size_t>(msg.version);
        run->out[i] = Delivered{eq->curTick(), node};
        run->perNode[node].push_back(i);
    }
};

RealRun
runReal(const std::vector<SendSpec> &sends, unsigned shards,
        const FaultPlan *faults)
{
    RealRun r;
    r.out.assign(sends.size(), Delivered{});
    SimKernel kernel(ShardMap::leafAligned(16, 8, shards), 1 + 100,
                     1 + FatTreeTopology(16, 8)
                             .minCrossLeafLatencyTicks(100));
    Network net(kernel.queue(0), 16);
    net.attachKernel(kernel);
    if (faults)
        net.setFaultPlan(faults);
    IndexSink sinks[16];
    for (NodeId n = 0; n < 16; ++n) {
        sinks[n].eq = &kernel.queueForNode(n);
        sinks[n].node = n;
        sinks[n].run = &r;
        net.registerHandler(n, &sinks[n]);
    }
    for (std::size_t i = 0; i < sends.size(); ++i) {
        const SendSpec s = sends[i];
        kernel.queueForNode(s.src).schedule(s.at, [&net, s, i]() {
            Message m;
            m.type = s.type;
            m.src = s.src;
            m.dst = s.dst;
            m.version = i;
            net.send(m);
        });
    }
    kernel.run();
    r.stats = kernel.aggregateStats();
    r.faultDelayed = net.faultDelayedMessages();
    return r;
}

} // namespace

TEST(NetworkOracle, RandomSendsMatchTheHeapAndDrainModel)
{
    for (const bool faulted : {false, true}) {
        FaultConfig f;
        f.enabled = true;
        f.stallNodeFraction = 0.5;
        f.stallPeriod = 3000;
        f.stallDuration = 400;
        f.grayLinkFraction = 0.3;
        f.grayExtraLatency = 150;
        f.grayPeriod = 2500;
        f.grayDuration = 800;
        const FaultPlan plan(f, 16, Rng(11));
        const FaultPlan *faults = faulted ? &plan : nullptr;
        for (std::uint64_t seed : {1ull, 7ull, 2024ull}) {
            SCOPED_TRACE(std::string(faulted ? "stalls" : "clean") +
                         " seed " + std::to_string(seed));
            Rng rng(seed);
            std::vector<SendSpec> sends;
            for (int i = 0; i < 400; ++i) {
                SendSpec s;
                // Bursty send ticks so ports contend.
                s.at = (rng.next() % 60) * (rng.next() % 2 ? 1 : 37);
                s.src = static_cast<NodeId>(rng.next() % 16);
                // Mostly near (same leaf), some far, a few local.
                const std::uint64_t k = rng.next() % 16;
                s.dst = k < 8 ? static_cast<NodeId>((s.src & ~7u) |
                                                    (k & 7))
                              : static_cast<NodeId>(rng.next() % 16);
                s.type = rng.next() % 3 ? MsgType::ReqShared
                                        : MsgType::RespSharedData;
                sends.push_back(s);
            }
            DrainModel ref;
            ref.faults = faults;
            ref.run(sends);
            for (unsigned shards : {1u, 2u}) {
                SCOPED_TRACE(std::to_string(shards) + " shard(s)");
                const RealRun got = runReal(sends, shards, faults);
                for (std::size_t i = 0; i < sends.size(); ++i) {
                    EXPECT_EQ(got.out[i].when, ref.out[i].when)
                        << "message " << i;
                    EXPECT_EQ(got.out[i].node, ref.out[i].node);
                }
                EXPECT_EQ(got.perNode, ref.perNode);
                EXPECT_EQ(got.stats.executed, ref.executed);
                EXPECT_EQ(got.stats.scheduled, ref.executed);
                EXPECT_EQ(got.faultDelayed, ref.faultDelayed);
            }
            if (faulted) {
                EXPECT_GT(ref.faultDelayed, 0u);
            }
        }
    }
}

TEST(NetworkConfigTest, HopLatencyScalesDelivery)
{
    for (Tick hop : {50u, 100u, 200u, 400u}) {
        EventQueue eq;
        NetworkConfig cfg;
        cfg.hopLatency = hop;
        Network net(eq, 16, cfg);
        Sink s;
        s.eq = &eq;
        Sink dummy;
        dummy.eq = &eq;
        net.registerHandler(0, &dummy);
        net.registerHandler(8, &s);
        Message m;
        m.type = MsgType::ReqShared;
        m.src = 0;
        m.dst = 8;
        net.send(m);
        eq.run();
        ASSERT_EQ(s.got.size(), 1u);
        EXPECT_EQ(s.got[0].when, 8 + 2 * hop + 8);
    }
}
