/** @file Barrier driver tests: completion, generations, and the
 *  coherence traffic it generates (reload flurry). */

#include <gtest/gtest.h>

#include "harness.hh"
#include "src/runner/job.hh"
#include "src/runner/results.hh"

using namespace pcsim;

namespace
{

/** All CPUs arrive; returns when every one has passed. */
void
runBarrier(Harness &h, unsigned cpus)
{
    unsigned passed = 0;
    for (unsigned c = 0; c < cpus; ++c)
        h.sys.barrier().arrive(c, [&passed]() { ++passed; });
    h.sys.eventQueue().run();
    ASSERT_EQ(passed, cpus);
}

} // namespace

TEST(Barrier, AllCpusPass)
{
    Harness h(presets::base(16));
    runBarrier(h, 16);
    EXPECT_EQ(h.sys.barrier().generationsCompleted(), 1u);
}

TEST(Barrier, MultipleGenerations)
{
    Harness h(presets::base(16));
    for (int g = 0; g < 5; ++g)
        runBarrier(h, 16);
    EXPECT_EQ(h.sys.barrier().generationsCompleted(), 5u);
}

TEST(Barrier, GenerationCallbackFires)
{
    Harness h(presets::base(16));
    std::vector<std::uint64_t> gens;
    h.sys.barrier().setOnGeneration(
        [&](std::uint64_t g, Tick) { gens.push_back(g); });
    runBarrier(h, 16);
    runBarrier(h, 16);
    EXPECT_EQ(gens, (std::vector<std::uint64_t>{1, 2}));
}

TEST(Barrier, StaggeredArrivalsStillComplete)
{
    Harness h(presets::base(16));
    unsigned passed = 0;
    // The master arrives first and must wait for every slave. Spin
    // loops re-poll forever, so run with a bounded horizon until the
    // last slave shows up.
    h.sys.barrier().arrive(0, [&passed]() { ++passed; });
    h.sys.eventQueue().run(h.sys.eventQueue().curTick() + 20000);
    EXPECT_EQ(passed, 0u);
    for (unsigned c = 1; c < 16; ++c) {
        h.sys.barrier().arrive(c, [&passed]() { ++passed; });
        h.sys.eventQueue().run(h.sys.eventQueue().curTick() + 20000);
    }
    EXPECT_EQ(passed, 16u);
}

TEST(Barrier, LastArriverReleasesPromptly)
{
    Harness h(presets::base(16));
    unsigned passed = 0;
    for (unsigned c = 1; c < 16; ++c)
        h.sys.barrier().arrive(c, [&passed]() { ++passed; });
    h.sys.eventQueue().run(h.sys.eventQueue().curTick() + 20000);
    EXPECT_EQ(passed, 0u); // master missing
    h.sys.barrier().arrive(0, [&passed]() { ++passed; });
    h.sys.eventQueue().run(h.sys.eventQueue().curTick() + 50000);
    EXPECT_EQ(passed, 16u);
}

TEST(Barrier, GeneratesCoherenceTraffic)
{
    Harness h(presets::base(16));
    runBarrier(h, 16);
    // Arrival flags and the release flag are real coherent lines.
    EXPECT_GT(h.sys.network().numMessages(), 0u);
}

TEST(Barrier, SingleCpuDegenerate)
{
    Harness h(presets::base(1));
    unsigned passed = 0;
    h.sys.barrier().arrive(0, [&passed]() { ++passed; });
    h.sys.eventQueue().run();
    EXPECT_EQ(passed, 1u);
}

TEST(Barrier, WorksUnderFullMechanismConfig)
{
    Harness h(presets::large(16));
    for (int g = 0; g < 8; ++g)
        runBarrier(h, 16);
    EXPECT_EQ(h.sys.barrier().generationsCompleted(), 8u);
    h.checkQuiescent();
}

// ---- Spin elision: the wake-prefix arithmetic ----------------------
//
// Chain used below: L_k = 1000 + 32(k-1), D_k = L_k + 2; L_k is
// scheduled at L_k - 30 (by D_{k-1}) and D_k at L_k.

namespace
{

const SpinChain kChain{/*firstPoll=*/1000, /*spinDelay=*/30,
                       /*hitLatency=*/2};

/** A waker in position (@p insert_tick, @p early). */
EventOrder
waker(Tick insert_tick, bool early = false)
{
    return EventOrder{insert_tick, early};
}

void
expectPrefix(const SpinPrefix &p, std::uint64_t polls,
             std::uint64_t completions, bool tie = false)
{
    EXPECT_EQ(p.polls, polls);
    EXPECT_EQ(p.completions, completions);
    EXPECT_EQ(p.tie, tie);
}

} // namespace

TEST(SpinWakePrefix, WakeBeforeTheFirstVirtualPoll)
{
    expectPrefix(spinWakePrefix(kChain, 971, waker(900)), 0, 0);
    expectPrefix(spinWakePrefix(kChain, 999, waker(998)), 0, 0);
}

TEST(SpinWakePrefix, WakeOnAPollTick)
{
    // L_1 at 1000 was scheduled at 970.
    expectPrefix(spinWakePrefix(kChain, 1000, waker(960)), 0, 0);
    expectPrefix(spinWakePrefix(kChain, 1000, waker(980)), 1, 0);
    // Same insert tick: an early waker (every remote delivery) was
    // queued first.
    expectPrefix(
        spinWakePrefix(kChain, 1000, waker(970, true)), 0, 0);
    // L_3 at 1064, scheduled at 1034, after D_2 at 1034.
    expectPrefix(spinWakePrefix(kChain, 1064, waker(1033)), 2, 2);
    expectPrefix(spinWakePrefix(kChain, 1064, waker(1035)), 3, 2);
}

TEST(SpinWakePrefix, WakeOnACompletionTick)
{
    // D_3 at 1066 was scheduled at L_3 = 1064.
    expectPrefix(spinWakePrefix(kChain, 1066, waker(1063)), 3, 2);
    expectPrefix(
        spinWakePrefix(kChain, 1066, waker(1064, true)), 3, 2);
    expectPrefix(spinWakePrefix(kChain, 1066, waker(1066)), 3, 3);
    // Between events.
    expectPrefix(spinWakePrefix(kChain, 1065, waker(1000)), 3, 2);
    expectPrefix(spinWakePrefix(kChain, 1067, waker(1000)), 3, 3);
}

TEST(SpinWakePrefix, EarlyWakerFromBeforeTheChainPrecedesTheWholeTick)
{
    const EventOrder early{/*insertTick=*/1, /*early=*/true};
    expectPrefix(spinWakePrefix(kChain, 1064, early), 2, 2);
    expectPrefix(spinWakePrefix(kChain, 1066, early), 3, 2);
}

TEST(SpinWakePrefix, NormalTiesAreCountedAndResolvedChainFirst)
{
    // Waker and chain event scheduled in the same tick by normal
    // events: nothing recorded orders them.
    expectPrefix(spinWakePrefix(kChain, 1000, waker(970)), 1, 0, true);
    expectPrefix(spinWakePrefix(kChain, 1066, waker(1064)), 3, 3, true);
    // An early waker positioned at the wake tick itself comes after
    // every chain event of that tick, which were inserted earlier.
    expectPrefix(spinWakePrefix(kChain, 1066, waker(1066, true)), 3, 3);
}

TEST(SpinWakePrefix, MillionPeriodSpin)
{
    const std::uint64_t k = 2'000'000;
    const Tick lk = kChain.pollTick(k);
    EXPECT_EQ(lk, 1000u + 32u * (k - 1));
    expectPrefix(spinWakePrefix(kChain, lk + 7, waker(lk)), k, k);
    expectPrefix(spinWakePrefix(kChain, lk + 2, waker(lk - 1)), k,
                 k - 1);
    expectPrefix(spinWakePrefix(kChain, lk, waker(lk)), k, k - 1);
}

TEST(SpinWakePrefix, PrefixBeforeATickExcludesThatTick)
{
    expectPrefix(spinPrefixBefore(kChain, 0), 0, 0);
    expectPrefix(spinPrefixBefore(kChain, 1000), 0, 0);
    expectPrefix(spinPrefixBefore(kChain, 1002), 1, 0);
    expectPrefix(spinPrefixBefore(kChain, 1003), 1, 1);
    expectPrefix(spinPrefixBefore(kChain, 1032), 1, 1);
}

// ---- Spin elision: end to end --------------------------------------

TEST(SpinElision, ParkedRunsMatchUnelidedRuns)
{
    // The conformance observer disables parking and observes nothing
    // that changes a run, so with it on every poll executes: the
    // deterministic document must not move. PubSub at 64 nodes has
    // resumed chain events sharing their tick with other events, so
    // it also checks that they resume in their original position.
    struct Case
    {
        const char *workload;
        unsigned nodes;
        const char *config;
        double scale;
    };
    const Case cases[] = {
        {"PCmicro", 16, "base", 0.2}, {"PCmicro", 16, "large", 0.2},
        {"em3d", 16, "base", 0.2},    {"em3d", 16, "large", 0.2},
        {"KVServe", 16, "base", 0.2}, {"KVServe", 16, "large", 0.2},
        {"PubSub", 64, "base", 1.0},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.workload) + "/" + c.config);
        MachineConfig cfg;
        std::string name;
        ASSERT_TRUE(
            runner::namedMachineConfig(c.config, c.nodes, cfg, name));
        auto wl = runner::makeRunnerWorkload(c.workload, c.nodes, c.scale);
        const RunResult parked = runWorkload(cfg, *wl, name);
        cfg.proto.conformanceEnabled = true;
        RunResult spun = runWorkload(cfg, *wl, name);
        spun.conformance.clear();
        EXPECT_GT(parked.perf.spinParks, 0u);
        EXPECT_GT(parked.perf.eventsElided, 0u);
        EXPECT_EQ(parked.perf.spinWakeTies, 0u);
        EXPECT_EQ(spun.perf.spinParks, 0u);
        EXPECT_EQ(spun.perf.eventsElided, 0u);
        EXPECT_EQ(runner::toJson(parked).dump(2),
                  runner::toJson(spun).dump(2));
    }
}
