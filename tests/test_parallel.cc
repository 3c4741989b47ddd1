/**
 * @file
 * Parallel event kernel (PDES) tests: the conservative sharded kernel
 * must be byte-identical to the sequential oracle for every workload,
 * shard count and fault scenario, and the shard scheduler itself must
 * be deterministic under randomized cross-shard traffic.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "src/net/topology.hh"
#include "src/runner/job.hh"
#include "src/runner/results.hh"
#include "src/sim/kernel.hh"
#include "src/system/presets.hh"
#include "src/system/system.hh"

using namespace pcsim;

namespace
{

/** Serialized deterministic statistics of one fresh run. */
std::string
runSerialized(MachineConfig cfg, const std::string &workload,
              double scale, unsigned shards)
{
    cfg.shards = shards;
    System sys(cfg);
    auto wl = runner::makeRunnerWorkload(workload, sys.numNodes(),
                                         scale);
    RunResult r = sys.run(*wl);
    return runner::toJson(r, /*with_timing=*/false).dump(2);
}

} // namespace

// --- shard map ----------------------------------------------------

TEST(ShardMap, LeafAlignedNeverSplitsALeaf)
{
    // 32 nodes at radix 8 = 4 leaves.
    const ShardMap m = ShardMap::leafAligned(32, 8, 4);
    EXPECT_EQ(m.numShards, 4u);
    ASSERT_EQ(m.shardOf.size(), 32u);
    for (unsigned n = 0; n < 32; ++n)
        EXPECT_EQ(m.shardOf[n], n / 8) << "node " << n;
}

TEST(ShardMap, ClampsToLeafCount)
{
    // 16 nodes = 2 leaves: any larger request clamps to 2.
    const ShardMap m = ShardMap::leafAligned(16, 8, 64);
    EXPECT_EQ(m.numShards, 2u);
    for (unsigned n = 0; n < 16; ++n)
        EXPECT_EQ(m.shardOf[n], n < 8 ? 0u : 1u);
}

TEST(ShardMap, UnevenLeafCountsStayContiguousAndBalanced)
{
    // 40 nodes = 5 leaves over 2 shards: split 3 + 2 (or 2 + 3), but
    // always contiguous whole leaves.
    const ShardMap m = ShardMap::leafAligned(40, 8, 2);
    EXPECT_EQ(m.numShards, 2u);
    unsigned flips = 0;
    for (unsigned n = 1; n < 40; ++n) {
        EXPECT_GE(m.shardOf[n], m.shardOf[n - 1]);
        flips += m.shardOf[n] != m.shardOf[n - 1];
        EXPECT_EQ(m.shardOf[n], m.shardOf[(n / 8) * 8])
            << "leaf of node " << n << " split across shards";
    }
    EXPECT_EQ(flips, 1u);
}

TEST(Topology, MinCrossLeafLatency)
{
    // Multi-leaf systems: up to the parent and down = 2 hops.
    EXPECT_EQ(FatTreeTopology(64).minCrossLeafHops(), 2u);
    EXPECT_EQ(FatTreeTopology(9).minCrossLeafHops(), 2u);
    EXPECT_EQ(FatTreeTopology(256).minCrossLeafHops(), 2u);
    // One leaf: no cross-leaf pair; the floor degenerates to the
    // single-router hop (or zero for a single node).
    EXPECT_EQ(FatTreeTopology(8).minCrossLeafHops(), 1u);
    EXPECT_EQ(FatTreeTopology(1).minCrossLeafHops(), 0u);
    EXPECT_EQ(FatTreeTopology(64).minCrossLeafLatencyTicks(10), 20u);
    EXPECT_EQ(FatTreeTopology(8).minCrossLeafLatencyTicks(10), 10u);
}

// --- byte identity vs the sequential oracle -----------------------

TEST(ParallelIdentity, WorkloadMatrixMatchesSequentialOracle)
{
    // 32 nodes = 4 leaves, so 2 and 4 shards are both effective.
    struct Case
    {
        const char *workload;
        double scale;
    };
    const Case cases[] = {
        {"PCmicro", 1.0},
        {"WorkQueue", 0.5},
        {"RCU", 0.5},
    };
    for (const Case &c : cases) {
        MachineConfig cfg;
        std::string cname;
        ASSERT_TRUE(runner::namedMachineConfig("base", 32, cfg, cname));
        const std::string oracle =
            runSerialized(cfg, c.workload, c.scale, 1);
        for (unsigned shards : {2u, 4u}) {
            EXPECT_EQ(runSerialized(cfg, c.workload, c.scale, shards),
                      oracle)
                << c.workload << " diverged at " << shards
                << " shards";
        }
    }
}

TEST(ParallelIdentity, PCmicroLarge64MatchesAtTwoFourEight)
{
    // 64 nodes = 8 leaves: 8 shards is the topology limit.
    MachineConfig cfg;
    std::string cname;
    ASSERT_TRUE(runner::namedMachineConfig("large", 64, cfg, cname));
    cfg.proto.checkerEnabled = false;
    const std::string oracle = runSerialized(cfg, "PCmicro", 1.0, 1);
    for (unsigned shards : {2u, 4u, 8u})
        EXPECT_EQ(runSerialized(cfg, "PCmicro", 1.0, shards), oracle)
            << "diverged at " << shards << " shards";
}

TEST(ParallelIdentity, CheckerAndConformanceStayIdentical)
{
    MachineConfig cfg;
    std::string cname;
    ASSERT_TRUE(runner::namedMachineConfig("large", 32, cfg, cname));
    cfg.proto.checkerEnabled = true;
    cfg.proto.conformanceEnabled = true;
    const std::string oracle = runSerialized(cfg, "PCmicro", 1.0, 1);
    EXPECT_EQ(runSerialized(cfg, "PCmicro", 1.0, 4), oracle);
}

TEST(ParallelIdentity, FaultStormMatchesSequentialOracle)
{
    // The acceptance scenario: gray links + NI stalls + directory
    // pressure, with the checker and conformance observer enabled --
    // retry storms and fault-delayed messages must serialize
    // identically from the sharded kernel.
    MachineConfig cfg;
    std::string cname;
    ASSERT_TRUE(runner::namedMachineConfig("base", 32, cfg, cname));
    for (const auto &scen : presets::faultScenarios()) {
        if (scen.name != "storm")
            continue;
        cfg.proto.faults = scen.faults;
        cfg.proto.checkerEnabled = true;
        cfg.proto.conformanceEnabled = true;
        cfg.proto.retryExpCap = 6;
        const std::string oracle =
            runSerialized(cfg, "PCmicro", 0.5, 1);
        for (unsigned shards : {2u, 4u})
            EXPECT_EQ(runSerialized(cfg, "PCmicro", 0.5, shards),
                      oracle)
                << "storm diverged at " << shards << " shards";
    }
}

TEST(ParallelIdentity, OverRequestedShardsClampAndStayIdentical)
{
    MachineConfig cfg;
    std::string cname;
    ASSERT_TRUE(runner::namedMachineConfig("base", 16, cfg, cname));
    cfg.shards = 64; // 16 nodes = 2 leaves: clamps to 2
    System sys(cfg);
    EXPECT_EQ(sys.kernel().numShards(), 2u);
    auto wl = runner::makeRunnerWorkload("PCmicro", 16, 1.0);
    RunResult r = sys.run(*wl);
    EXPECT_EQ(runner::toJson(r, false).dump(2),
              runSerialized(cfg, "PCmicro", 1.0, 1));
}

// --- randomized shard-scheduler stress ----------------------------

namespace
{

/**
 * A miniature network over the raw kernel, mirroring the real one's
 * unified delivery semantics: every message lands in a per-destination
 * min-heap keyed (arrive, src, seq) and gets one keyed event, a few
 * ticks after its arrival and positioned at it, that takes every
 * pending message up to its own off the heap in content order --
 * whether it crossed a shard boundary (via the barrier-flushed
 * channels) or not (inserted directly by the source's own worker).
 * Nodes fire randomly, message each other at latencies >= the
 * lookahead, and fold everything they observe into per-node hashes;
 * the hashes must be independent of the shard count.
 */
struct StressNet
{
    struct Msg
    {
        NodeId dst;
        Tick arrive;
        NodeId src;
        std::uint64_t seq;
        bool operator>(const Msg &o) const
        {
            if (arrive != o.arrive)
                return arrive > o.arrive;
            if (src != o.src)
                return src > o.src;
            return seq > o.seq;
        }
    };

    struct Rng
    {
        std::uint64_t s;
        std::uint32_t next()
        {
            s = s * 6364136223846793005ull + 1442695040888963407ull;
            return static_cast<std::uint32_t>(s >> 33);
        }
    };

    static constexpr unsigned kNodes = 32;
    static constexpr unsigned kRadix = 8;
    static constexpr Tick kHop = 10;

    SimKernel kernel;
    std::vector<
        std::priority_queue<Msg, std::vector<Msg>, std::greater<Msg>>>
        heaps{kNodes};
    std::vector<std::vector<Msg>> channels;
    std::vector<std::uint64_t> srcSeq =
        std::vector<std::uint64_t>(kNodes, 0);
    std::vector<Rng> rng;
    std::vector<std::uint64_t> hash =
        std::vector<std::uint64_t>(kNodes, 0);
    std::vector<unsigned> budget;

    explicit StressNet(unsigned shards)
        : kernel(ShardMap::leafAligned(kNodes, kRadix, shards),
                 1 + kHop,
                 1 + FatTreeTopology(kNodes, kRadix)
                         .minCrossLeafLatencyTicks(kHop))
    {
        channels.resize(std::size_t(kernel.numShards()) *
                        kernel.numShards());
        for (unsigned n = 0; n < kNodes; ++n) {
            rng.push_back(Rng{0x9E3779B97F4A7C15ull ^ (n * 2654435761u)});
            budget.push_back(200);
        }
        kernel.setFlushHook([this](unsigned shard) { flush(shard); });
    }

    void
    mix(NodeId n, std::uint64_t v)
    {
        hash[n] = (hash[n] ^ v) * 1099511628211ull;
    }

    void
    deliver(Msg m)
    {
        heaps[m.dst].push(m);
        kernel.queueForNode(m.dst).schedule(
            m.arrive + 1 + (m.seq & 3), EventOrder{m.arrive, true},
            [this, m]() { take(m); });
    }

    void
    take(const Msg &m)
    {
        const Tick now = kernel.queueForNode(m.dst).curTick();
        auto &h = heaps[m.dst];
        while (!h.empty() && !(h.top() > m)) {
            const Msg t = h.top();
            h.pop();
            mix(m.dst, (std::uint64_t(t.src) << 32) ^ (t.arrive << 8) ^
                           now);
        }
    }

    void
    send(NodeId src, NodeId dst, Tick now)
    {
        // Latency floor mirrors the real network: >= 1 tick of
        // egress occupancy plus the cross-leaf hop latency.
        const Tick arrive = now + kernel.lookahead() +
                            (rng[src].next() & 31);
        const Msg m{dst, arrive, src, ++srcSeq[src]};
        const unsigned ss = kernel.shardOf(src);
        const unsigned ds = kernel.shardOf(dst);
        if (ss == ds)
            deliver(m);
        else
            channels[std::size_t(ss) * kernel.numShards() + ds]
                .push_back(m);
    }

    void
    flush(unsigned shard)
    {
        for (unsigned ss = 0; ss < kernel.numShards(); ++ss) {
            auto &ch =
                channels[std::size_t(ss) * kernel.numShards() + shard];
            for (const Msg &m : ch)
                deliver(m);
            ch.clear();
        }
    }

    void
    fire(NodeId n)
    {
        EventQueue &q = kernel.queueForNode(n);
        mix(n, q.curTick() * kNodes + n);
        if (budget[n] == 0)
            return;
        --budget[n];
        const std::uint32_t r = rng[n].next();
        if ((r & 3) == 0)
            send(n, static_cast<NodeId>(rng[n].next() % kNodes),
                 q.curTick());
        q.scheduleIn(1 + (rng[n].next() & 63),
                     [this, n]() { fire(n); });
    }

    std::vector<std::uint64_t>
    run()
    {
        for (unsigned n = 0; n < kNodes; ++n) {
            kernel.queueForNode(static_cast<NodeId>(n))
                .schedule(1 + (n & 7),
                          [this, n]() {
                              fire(static_cast<NodeId>(n));
                          });
        }
        kernel.run();
        return hash;
    }
};

} // namespace

TEST(ParallelKernel, RandomizedShardSchedulerStress)
{
    const std::vector<std::uint64_t> oracle = StressNet(1).run();
    for (unsigned shards : {2u, 4u}) {
        StressNet net(shards);
        ASSERT_EQ(net.kernel.numShards(), shards);
        EXPECT_EQ(net.run(), oracle)
            << "per-node observation hashes diverged at " << shards
            << " shards";
        for (unsigned n = 0; n < StressNet::kNodes; ++n)
            EXPECT_TRUE(net.heaps[n].empty());
    }
}

TEST(ParallelKernel, TelemetryCountsWindowsOnlyWhenParallel)
{
    {
        StressNet seq(1);
        seq.run();
        EXPECT_EQ(seq.kernel.stats().windows, 0u);
        EXPECT_EQ(seq.kernel.stats().barriers, 0u);
    }
    {
        StressNet par(4);
        par.run();
        EXPECT_GT(par.kernel.stats().windows, 0u);
        EXPECT_EQ(par.kernel.stats().barriers,
                  3 * par.kernel.stats().windows);
    }
}
