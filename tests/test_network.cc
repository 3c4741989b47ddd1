/** @file Topology and interconnect tests. */

#include <gtest/gtest.h>

#include <vector>

#include "src/net/network.hh"
#include "src/net/topology.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/kernel.hh"

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
    net.resetStats();
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

// Drain bookkeeping: one phase-0 drain per distinct (node, arrival
// tick), ejecting in (arrive, src, seq) order however the sends were
// issued.

TEST_F(NetFixture, SameTickArrivalsArmOneDrain)
{
    // Three one-hop requests sent at tick 0 all arrive at node 0 at
    // tick 8 + 100; send them out of source order.
    for (NodeId src : {3u, 1u, 2u})
        net.send(msg(src, 0));
    EXPECT_EQ(eq.numPending(), 1u); // a single armed drain
    eq.run();
    // One drain plus three deliveries.
    EXPECT_EQ(eq.stats().executed, 4u);
    ASSERT_EQ(sinks[0].got.size(), 3u);
    for (unsigned i = 0; i < 3; ++i) {
        EXPECT_EQ(sinks[0].got[i].msg.src, i + 1);
        EXPECT_EQ(sinks[0].got[i].when, 108 + 8 * (i + 1));
    }
}

TEST_F(NetFixture, OutOfOrderArrivalTicksDrainInTickOrder)
{
    // Arrival ticks at node 0, in send order: 208 (two hops), 108
    // (one hop), 208 again (already armed) and 140 (a 160 B data
    // message, between the two armed ticks).
    net.send(msg(8, 0));
    net.send(msg(1, 0));
    net.send(msg(9, 0));
    net.send(msg(2, 0, MsgType::RespSharedData));
    EXPECT_EQ(eq.numPending(), 3u); // drains at 108, 140 and 208
    eq.run();
    EXPECT_EQ(eq.stats().executed, 3u + 4u);
    ASSERT_EQ(sinks[0].got.size(), 4u);
    const NodeId order[] = {1, 2, 8, 9};
    const Tick when[] = {116, 180, 216, 224};
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(sinks[0].got[i].msg.src, order[i]);
        EXPECT_EQ(sinks[0].got[i].when, when[i]);
    }

    // Bookkeeping is empty again: a later arrival at a tick already
    // drained is a fresh tick and arms its own drain.
    net.send(msg(1, 0));
    EXPECT_EQ(eq.numPending(), 1u);
    eq.run();
    EXPECT_EQ(sinks[0].got.size(), 5u);
}

TEST(NetworkShards, FlushedArrivalsShareOneDrain)
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
    EXPECT_EQ(kernel.queue(0).numPending(), 1u);
    net.flushShard(0); // channels are empty now
    EXPECT_EQ(kernel.queue(0).numPending(), 1u);

    // A same-shard send arriving at the same tick (100 + 8 + 100 =
    // 208) joins the armed drain and ejects first (lowest source).
    kernel.queue(0).schedule(100, [&]() {
        m.src = 1;
        net.send(m);
    });
    kernel.run();
    // The send, one drain and four deliveries.
    EXPECT_EQ(kernel.queue(0).stats().executed, 6u);
    ASSERT_EQ(sinks[0].got.size(), 4u);
    const NodeId order[] = {1, 8, 9, 10};
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(sinks[0].got[i].msg.src, order[i]);
        EXPECT_EQ(sinks[0].got[i].when, 208 + 8 * (i + 1));
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
