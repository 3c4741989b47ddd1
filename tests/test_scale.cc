/** @file Scale-out tests: topology and memory-map behavior at
 *  non-power-of-two and large node counts, configuration validation,
 *  detector width scaling, and a 64-node machine run end-to-end under
 *  the invariant checker (exact and coarse sharing vectors). */

#include <gtest/gtest.h>

#include "src/core/pc_detector.hh"
#include "src/mem/memory_map.hh"
#include "src/net/topology.hh"
#include "src/protocol/config.hh"
#include "src/system/presets.hh"
#include "src/system/system.hh"
#include "src/workload/micro.hh"
#include "src/workload/suite.hh"

using namespace pcsim;

// --- Topology at odd and large node counts -------------------------

class TopologyAtScale : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(TopologyAtScale, DepthCoversAllLeaves)
{
    const unsigned n = GetParam();
    FatTreeTopology t(n);
    // radix^depth reaches every leaf; depth-1 would not (unless the
    // machine fits a single router).
    std::uint64_t reach = 1;
    for (unsigned d = 0; d < t.depth(); ++d)
        reach *= t.radix();
    EXPECT_GE(reach, n);
    if (t.depth() > 1) {
        EXPECT_LT(reach / t.radix(), n);
    }
    EXPECT_EQ(t.maxHops(), t.depth());
}

TEST_P(TopologyAtScale, HopsAreSymmetricAndBounded)
{
    const unsigned n = GetParam();
    FatTreeTopology t(n);
    const unsigned step = n > 32 ? 7 : 1; // sample large machines
    for (unsigned a = 0; a < n; a += step) {
        EXPECT_EQ(t.hops(a, a), 0u);
        for (unsigned b = 0; b < n; b += step) {
            EXPECT_EQ(t.hops(a, b), t.hops(b, a));
            if (a != b) {
                EXPECT_GE(t.hops(a, b), 1u);
                EXPECT_LE(t.hops(a, b), t.maxHops());
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TopologyAtScale,
                         ::testing::Values(3u, 24u, 64u, 200u));

TEST(TopologyAtScale, KnownHopCounts)
{
    FatTreeTopology t(200); // depth 3: 8 < 200 <= 512
    EXPECT_EQ(t.depth(), 3u);
    EXPECT_EQ(t.hops(0, 7), 1u);    // same leaf router
    EXPECT_EQ(t.hops(0, 63), 2u);   // same level-2 router
    EXPECT_EQ(t.hops(0, 199), 3u);  // across the root
    FatTreeTopology small(3);
    EXPECT_EQ(small.depth(), 1u);
    EXPECT_EQ(small.hops(0, 2), 1u);
}

// --- Memory map at odd and large node counts -----------------------

class MemoryMapAtScale : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(MemoryMapAtScale, RoundRobinCoversEveryNode)
{
    const unsigned n = GetParam();
    MemoryMap m(n, 16 * 1024, Placement::RoundRobin);
    std::vector<unsigned> hits(n, 0);
    for (unsigned p = 0; p < 2 * n; ++p) {
        const NodeId home = m.homeOf(Addr{p} * 16 * 1024, 0);
        ASSERT_LT(home, n);
        ++hits[home];
    }
    for (unsigned node = 0; node < n; ++node)
        EXPECT_EQ(hits[node], 2u) << "node " << node;
}

TEST_P(MemoryMapAtScale, FirstTouchKeepsHighNodeIds)
{
    const unsigned n = GetParam();
    MemoryMap m(n);
    const NodeId last = static_cast<NodeId>(n - 1);
    EXPECT_EQ(m.homeOf(0x100000, last), last);
    EXPECT_EQ(m.homeOf(0x100000, 0), last);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MemoryMapAtScale,
                         ::testing::Values(3u, 24u, 64u, 200u));

// --- Configuration validation --------------------------------------

TEST(ConfigValidate, PresetsAreValidAtEveryScalePoint)
{
    for (unsigned n : presets::scaleNodeCounts()) {
        for (const auto &nc : presets::scaleConfigs(n))
            EXPECT_EQ(nc.cfg.proto.validateError(), "")
                << nc.name << " at " << n;
        const MachineConfig c =
            presets::coarse(presets::base(n), /*nodes_per_bit=*/8);
        EXPECT_EQ(c.proto.validateError(), "") << "coarse at " << n;
    }
}

TEST(ConfigValidate, RejectsDegenerateConfigs)
{
    ProtocolConfig c;
    c.numNodes = 0;
    EXPECT_NE(c.validateError().find("numNodes"), std::string::npos);

    c = ProtocolConfig{};
    c.numNodes = ProtocolConfig::maxNodes + 1;
    EXPECT_NE(c.validateError().find("maximum"), std::string::npos);

    c = ProtocolConfig{};
    c.lineBytes = 96; // not a power of two
    EXPECT_NE(c.validateError().find("lineBytes"), std::string::npos);

    // The cache arrays index with masks and shifts, so every line
    // size must be a power of two.
    c = ProtocolConfig{};
    c.l1.lineBytes = 24;
    EXPECT_NE(c.validateError().find("L1 geometry"), std::string::npos);
    c = ProtocolConfig{};
    c.racEnabled = true;
    c.rac.lineBytes = 96;
    EXPECT_NE(c.validateError().find("RAC geometry"), std::string::npos);

    c = ProtocolConfig{};
    c.numNodes = 16;
    c.sharerGranularityLog2 = 5; // 32 nodes per bit > machine size
    EXPECT_NE(c.validateError().find("sharerGranularityLog2"),
              std::string::npos);

    c = ProtocolConfig{};
    c.kind = ProtocolKind::Delegation; // without a RAC
    EXPECT_NE(c.validateError().find("RAC"), std::string::npos);

    c = ProtocolConfig{};
    c.kind = ProtocolKind::WriteUpdate;
    c.racEnabled = true; // update-based kinds reject the RAC
    c.rac.sizeBytes = 32 * 1024;
    EXPECT_NE(c.validateError().find("update-based"), std::string::npos);

    c = ProtocolConfig{};
    c.kind = ProtocolKind::NumProtocolKinds; // out of range
    EXPECT_NE(c.validateError().find("unknown ProtocolKind"),
              std::string::npos);

    c = ProtocolConfig{};
    c.kind = ProtocolKind::AdaptiveHybrid;
    c.adaptiveThreshold = 0;
    EXPECT_NE(c.validateError().find("adaptiveThreshold"),
              std::string::npos);

    EXPECT_EQ(ProtocolConfig{}.validateError(), "");
}

TEST(ConfigValidate, SystemConstructorEnforcesValidation)
{
    MachineConfig m = presets::base(16);
    m.proto.mshrs = 0;
    EXPECT_EXIT(System sys(m), ::testing::ExitedWithCode(1), "mshrs");
}

// --- Detector width scales with the machine ------------------------

TEST(DetectorWidth, EightBitsPerEntryAtSixteenNodes)
{
    // The paper's sizing: 4-bit writer id + RW + WW + stable + valid.
    EXPECT_EQ(pcDetectorWriterBits(16), 4u);
    EXPECT_EQ(pcDetectorBitsPerEntry(16), 8u);
}

TEST(DetectorWidth, GrowsLogarithmically)
{
    EXPECT_EQ(pcDetectorBitsPerEntry(1), 5u);
    EXPECT_EQ(pcDetectorBitsPerEntry(3), 6u);
    EXPECT_EQ(pcDetectorBitsPerEntry(64), 10u);
    EXPECT_EQ(pcDetectorBitsPerEntry(200), 12u);
    EXPECT_EQ(pcDetectorBitsPerEntry(256), 12u);
}

TEST(DetectorWidth, ReportedInNodeStats)
{
    System sys(presets::base(16));
    EXPECT_EQ(sys.hub(0).stats().detectorBitsPerEntry, 8u);
    System big(presets::base(64));
    EXPECT_EQ(big.hub(0).stats().detectorBitsPerEntry, 10u);
}

// --- 64-node machines under the invariant checker ------------------

TEST(ScaleIntegration, SixtyFourNodeConfigsRunClean)
{
    for (const auto &nc : presets::scaleConfigs(64)) {
        MachineConfig cfg = nc.cfg;
        cfg.proto.checkerEnabled = true;
        cfg.proto.conformanceEnabled = true;
        ProducerConsumerMicro::Params p;
        p.iterations = 6;
        ProducerConsumerMicro wl(64, p);
        RunResult r = runWorkload(cfg, wl, nc.name);
        EXPECT_GT(r.cycles, 0u) << nc.name;
        EXPECT_GT(r.totalMisses(), 0u) << nc.name;
    }
}

TEST(ScaleIntegration, SixtyFourNodeCoarseVectorRunsClean)
{
    // 8 nodes per directory bit: spurious invalidations must be
    // tolerated everywhere the sharer vector fans out.
    MachineConfig cfg =
        presets::coarse(presets::small(64), /*nodes_per_bit=*/8);
    cfg.proto.checkerEnabled = true;
    cfg.proto.conformanceEnabled = true;
    RandomMicro::Params p;
    p.opsPerCpu = 150;
    p.lines = 24;
    RandomMicro wl(64, p);
    RunResult r = runWorkload(cfg, wl, "coarse");
    EXPECT_GT(r.totalMisses(), 0u);
}

TEST(ScaleIntegration, UpdatesStillWinAtSixtyFourNodes)
{
    auto wl = makeWorkload("Em3D", 64, 0.1);
    RunResult base = runWorkload(presets::base(64), *wl, "base");
    RunResult full = runWorkload(presets::small(64), *wl, "small");
    EXPECT_LT(full.cycles, base.cycles);
    EXPECT_LT(full.nodes.remoteMisses, base.nodes.remoteMisses);
    EXPECT_GT(full.nodes.updatesConsumed, 0u);
}
