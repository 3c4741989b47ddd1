/** @file System assembly, presets and configuration tests. */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "harness.hh"
#include "src/runner/job.hh"
#include "src/runner/results.hh"
#include "src/runner/runner.hh"
#include "src/workload/micro.hh"

using namespace pcsim;

TEST(Presets, BaseMatchesTable1)
{
    MachineConfig m = presets::base(16);
    EXPECT_EQ(m.proto.numNodes, 16u);
    EXPECT_EQ(m.proto.lineBytes, 128u);
    EXPECT_EQ(m.proto.l2SizeBytes, 2u * 1024 * 1024);
    EXPECT_EQ(m.proto.l2Ways, 4u);
    EXPECT_EQ(m.proto.l1.sizeBytes, 32u * 1024);
    EXPECT_EQ(m.proto.l1.lineBytes, 32u);
    EXPECT_EQ(m.proto.mshrs, 16u);
    EXPECT_EQ(m.proto.dram.accessLatency, 200u);
    EXPECT_EQ(m.net.hopLatency, 100u);
    EXPECT_FALSE(m.proto.racEnabled);
    EXPECT_EQ(m.proto.kind, ProtocolKind::MesiDir);
    EXPECT_FALSE(delegates(m.proto.kind));
    EXPECT_FALSE(pushesUpdates(m.proto.kind));
}

TEST(Presets, SmallAndLargeConfigurations)
{
    MachineConfig s = presets::small(16);
    EXPECT_TRUE(s.proto.racEnabled);
    EXPECT_EQ(s.proto.kind, ProtocolKind::DelegationUpdates);
    EXPECT_TRUE(delegates(s.proto.kind));
    EXPECT_TRUE(pushesUpdates(s.proto.kind));
    EXPECT_EQ(s.proto.delegate.producerEntries, 32u);
    EXPECT_EQ(s.proto.rac.sizeBytes, 32u * 1024);
    EXPECT_EQ(s.proto.interventionDelay, 50u);

    MachineConfig l = presets::large(16);
    EXPECT_EQ(l.proto.delegate.producerEntries, 1024u);
    EXPECT_EQ(l.proto.rac.sizeBytes, 1024u * 1024);
}

TEST(Presets, Figure7HasSixConfigsInPaperOrder)
{
    auto cfgs = presets::figure7Configs(16);
    ASSERT_EQ(cfgs.size(), 6u);
    EXPECT_EQ(cfgs[0].name, "Base");
    EXPECT_EQ(cfgs[1].name, "32K RAC");
    EXPECT_FALSE(delegates(cfgs[1].cfg.proto.kind));
    EXPECT_TRUE(pushesUpdates(cfgs[2].cfg.proto.kind));
    EXPECT_EQ(cfgs[3].cfg.proto.delegate.producerEntries, 1024u);
    EXPECT_EQ(cfgs[4].cfg.proto.rac.sizeBytes, 32u * 1024);
    EXPECT_EQ(cfgs[5].cfg.proto.delegate.producerEntries, 32u);
}

TEST(SystemDeath, DelegationWithoutRacIsRejected)
{
    MachineConfig m = presets::base(16);
    m.proto.kind = ProtocolKind::Delegation;
    EXPECT_DEATH({ System sys(m); }, "RAC");
}

TEST(SystemDeath, UpdateBasedWithRacIsRejected)
{
    // The RAC speculatively caches data a consumer lost to an
    // invalidation; update-based kinds never invalidate, so the
    // combination is rejected as inconsistent.
    MachineConfig m = presets::racOnly(32 * 1024, 16);
    m.proto.kind = ProtocolKind::WriteUpdate;
    EXPECT_DEATH({ System sys(m); }, "update-based");
}

TEST(SystemDeath, ZeroAdaptiveThresholdIsRejected)
{
    MachineConfig m = presets::adaptiveHybrid(16, 0);
    EXPECT_DEATH({ System sys(m); }, "adaptiveThreshold");
}

TEST(SystemDeath, WorkloadCpuMismatchIsFatal)
{
    ProducerConsumerMicro wl(8);
    System sys(presets::base(16));
    EXPECT_DEATH(sys.run(wl), "CPUs");
}

TEST(SystemDeath, ZeroBarrierSpinDelayIsRejected)
{
    MachineConfig m = presets::base(4);
    m.barrierSpinDelay = 0;
    EXPECT_DEATH({ System sys(m); },
                 "invalid machine configuration: barrierSpinDelay must "
                 "be at least 1");
}

TEST(SystemDeath, ZeroL1HitLatencyIsRejected)
{
    MachineConfig m = presets::base(4);
    m.proto.l1.hitLatency = 0;
    EXPECT_EQ(m.proto.validateError(),
              "l1.hitLatency must be at least 1 (a zero-latency hit "
              "completes in the tick of the load that issued it)");
    EXPECT_DEATH({ System sys(m); },
                 "invalid protocol configuration: l1.hitLatency must be "
                 "at least 1");
}

TEST(SystemTest, NodeCountIsConfigurable)
{
    for (unsigned n : {1u, 2u, 4u, 8u, 16u}) {
        System sys(presets::base(n));
        EXPECT_EQ(sys.numNodes(), n);
    }
}

TEST(SystemTest, RunResultAggregatesNodes)
{
    ProducerConsumerMicro wl(16);
    System sys(presets::base(16));
    RunResult r = sys.run(wl);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.nodes.reads, 0u);
    EXPECT_GT(r.nodes.writes, 0u);
    EXPECT_GT(r.netMessages, 0u);
    EXPECT_GT(r.netBytes, r.netMessages * 32);
    EXPECT_EQ(r.workload, "PCmicro");
}

TEST(SystemTest, TickLimitDetectsUnfinishedRuns)
{
    ProducerConsumerMicro wl(16);
    System sys(presets::base(16));
    EXPECT_DEATH(sys.run(wl, /*max_ticks=*/10), "unfinished");
}

TEST(SystemTest, SeedChangesNothingForDeterministicWorkloads)
{
    // Randomness only drives replacement tie-breaks and retry jitter;
    // two different seeds must still produce valid (and close) runs.
    ProducerConsumerMicro wl(16);
    MachineConfig a = withConformance(presets::small(16));
    a.seed = 1;
    MachineConfig b = withConformance(presets::small(16));
    b.seed = 99;
    RunResult ra = runWorkload(a, wl, "a");
    RunResult rb = runWorkload(b, wl, "b");
    EXPECT_NEAR(double(ra.cycles), double(rb.cycles),
                0.1 * double(ra.cycles));
}

TEST(SystemTest, HubLineAlignment)
{
    System sys(presets::base(16));
    EXPECT_EQ(sys.hub(0).lineOf(0x12345), 0x12345ull & ~127ull);
}

TEST(MessageNames, AllTypesHaveNames)
{
    for (unsigned t = 0;
         t < static_cast<unsigned>(MsgType::NumMsgTypes); ++t) {
        const char *name = msgTypeName(static_cast<MsgType>(t));
        EXPECT_STRNE(name, "Unknown") << "type " << t;
        // 23..30 are the reserved PEvent-alias gap (no wire type).
        if (t >= 23 && t <= 30)
            EXPECT_STREQ(name, "Reserved") << "type " << t;
        else
            EXPECT_STRNE(name, "Reserved") << "type " << t;
    }
}

TEST(MessageNames, ToStringContainsTypeAndAddr)
{
    Message m;
    m.type = MsgType::Delegate;
    m.addr = 0xabc00;
    m.src = 1;
    m.dst = 2;
    const std::string s = m.toString();
    EXPECT_NE(s.find("Delegate"), std::string::npos);
    EXPECT_NE(s.find("abc00"), std::string::npos);
}

namespace
{

/** The jobs of `pcsim run --workload em3d,mg --config base,small
 *  --scale 0.25` (tests/golden/run_reference.json). */
runner::JobSet
runReferenceJobs()
{
    runner::JobSet set;
    for (const char *workload : {"em3d", "mg"}) {
        for (const char *config : {"base", "small"}) {
            runner::Job j;
            j.workload = runner::canonicalWorkload(workload);
            EXPECT_TRUE(runner::namedMachineConfig(config, 16, j.cfg,
                                                   j.configName));
            j.cfg.proto.checkerEnabled = false;
            j.seed = 1;
            j.scale = 0.25;
            set.add(std::move(j));
        }
    }
    return set;
}

} // namespace

TEST(SpinElision, ReproducesRunReference)
{
    runner::RunnerOptions opts;
    opts.threads = 2;
    opts.progress = false;
    const auto results = runner::runJobs(runReferenceJobs(), opts);
    std::uint64_t polls_elided = 0, ties = 0;
    for (const auto &r : results) {
        ASSERT_TRUE(r.ok) << r.error;
        polls_elided += r.result.perf.spinPollsElided;
        ties += r.result.perf.spinWakeTies;
    }
    EXPECT_GT(polls_elided, 0u);
    EXPECT_EQ(ties, 0u);

    std::ifstream in(std::string(PCSIM_SOURCE_DIR) +
                     "/tests/golden/run_reference.json");
    std::ostringstream want;
    want << in.rdbuf();
    ASSERT_FALSE(want.str().empty()) << "golden file missing";
    EXPECT_EQ(runner::resultsToJson(results, /*with_timing=*/false)
                      .dump(2) +
                  "\n",
              want.str());
}

TEST(SpinElision, StatsResetWhileParkedMatchesUnelidedRun)
{
    // Em3D and MG work between their first two barriers, so no CPU is
    // parked at their generation-1 reset; in PCmicro and CG some are.
    // The reset must settle their elided polls before zeroing the
    // counters: the run must equal the unelided one (the conformance
    // observer disables parking and changes nothing else).
    for (const char *workload : {"PCmicro", "CG"}) {
        SCOPED_TRACE(workload);
        MachineConfig cfg;
        std::string name;
        ASSERT_TRUE(runner::namedMachineConfig("base", 16, cfg, name));

        System parked(cfg);
        auto wl = runner::makeRunnerWorkload(workload, 16, 0.2);
        RunResult r = parked.run(*wl);
        r.config = name;
        EXPECT_GT(parked.barrier().spinStats().settled, 0u);
        EXPECT_GT(r.perf.spinPollsElided, 0u);
        EXPECT_EQ(r.perf.spinWakeTies, 0u);

        cfg.proto.conformanceEnabled = true;
        RunResult spun = runWorkload(cfg, *wl, name);
        spun.conformance.clear();
        EXPECT_EQ(spun.perf.spinParks, 0u);
        EXPECT_EQ(runner::toJson(r).dump(2),
                  runner::toJson(spun).dump(2));
    }
}

TEST(FoldedDrains, CountersArePinnedOnSmallRuns)
{
    // Each distinct (node, arrival tick) is one drain event folded
    // into the deliveries, and a delivery whose port was busy at its
    // arrival + occupancy re-arms once. Both are content-determined,
    // so the sharded kernel reports the same values; a return of
    // separate drain events would zero drainsFolded.
    struct Case
    {
        const char *workload;
        std::uint64_t executed;
        std::uint64_t folded;
        std::uint64_t rearms;
    };
    const Case cases[] = {
        {"PCmicro", 254521, 5277, 802},
        {"KVServe", 34898, 4251, 852},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.workload);
        MachineConfig cfg;
        std::string name;
        ASSERT_TRUE(runner::namedMachineConfig("base", 16, cfg, name));
        auto wl = runner::makeRunnerWorkload(c.workload, 16, 0.2);
        for (unsigned shards : {1u, 2u}) {
            cfg.shards = shards;
            const RunResult r = runWorkload(cfg, *wl, name);
            EXPECT_EQ(r.perf.eventsExecuted, c.executed);
            EXPECT_EQ(r.perf.drainsFolded, c.folded);
            EXPECT_EQ(r.perf.deliveryRearms, c.rearms);
            // Timing documents only, like the elision counters.
            EXPECT_EQ(runner::toJson(r, false).dump().find("drainsFolded"),
                      std::string::npos);
            EXPECT_NE(runner::toJson(r, true).dump().find(
                          "\"deliveryRearms\""),
                      std::string::npos);
        }
    }
}
