/** @file Pluggable coherence-policy layer tests: the registry must
 *  cover every ProtocolKind, each registered policy must survive a
 *  checker+conformance end-to-end run at small and large machine
 *  sizes (plus coarse sharer vectors for the update-based policies),
 *  every registered FSM spec must lint clean against its abstract
 *  model family, and the `pcsim compare` job grid must enumerate the
 *  full roster. */

#include <gtest/gtest.h>

#include <algorithm>

#include "src/protocol/policy.hh"
#include "src/runner/sweep.hh"
#include "src/system/presets.hh"
#include "src/system/system.hh"
#include "src/verify/lint.hh"
#include "src/workload/micro.hh"

#include "harness.hh"

using namespace pcsim;

TEST(PolicyRegistry, CoversEveryKindInEnumOrder)
{
    const auto &kinds = registeredPolicyKinds();
    ASSERT_EQ(kinds.size(),
              static_cast<std::size_t>(ProtocolKind::NumProtocolKinds));
    for (std::size_t i = 0; i < kinds.size(); ++i) {
        EXPECT_EQ(kinds[i], static_cast<ProtocolKind>(i));
        const CoherencePolicy &p = policyFor(kinds[i]);
        EXPECT_EQ(p.kind(), kinds[i]);
        // Names round-trip through the parser.
        ProtocolKind parsed;
        ASSERT_TRUE(protocolKindFromName(p.name(), parsed))
            << p.name();
        EXPECT_EQ(parsed, kinds[i]);
    }
    ProtocolKind k;
    EXPECT_FALSE(protocolKindFromName("mosi-token", k));
    EXPECT_FALSE(protocolKindFromName("Write-Update", k)); // case
}

TEST(PolicyRegistry, CompareRosterMatchesRegistry)
{
    const auto cfgs = presets::compareConfigs(16);
    const auto &kinds = registeredPolicyKinds();
    ASSERT_EQ(cfgs.size(), kinds.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        EXPECT_EQ(cfgs[i].name, protocolKindName(kinds[i]));
        EXPECT_EQ(cfgs[i].cfg.proto.kind, kinds[i]);
        EXPECT_EQ(cfgs[i].cfg.proto.validateError(), "");
    }
}

TEST(PolicyRuns, EveryPolicyPassesCheckerAtSmallAndLargeNodes)
{
    // End-to-end with the invariant checker (on by default) AND the
    // spec-conformance observer: every registered policy must finish
    // the paper's directed pattern at both machine sizes. Iterations
    // are scaled down: the point is protocol-path coverage, and 64
    // nodes at full length would dominate suite runtime.
    for (unsigned n : {16u, 64u}) {
        for (const auto &named : presets::compareConfigs(n)) {
            ProducerConsumerMicro::Params p;
            p.iterations = 40;
            ProducerConsumerMicro wl(n, p);
            RunResult r = runWorkload(withConformance(named.cfg), wl,
                                      named.name);
            EXPECT_GT(r.cycles, 0u) << named.name << " n=" << n;
            EXPECT_GT(r.nodes.writes, 0u) << named.name << " n=" << n;
            EXPECT_FALSE(r.conformance.empty())
                << named.name << " n=" << n;
            EXPECT_EQ(r.updateBased,
                      named.cfg.proto.updateBased())
                << named.name << " n=" << n;
            if (named.cfg.proto.updateBased()) {
                EXPECT_GT(r.nodes.updateEpisodes, 0u)
                    << named.name << " n=" << n;
                EXPECT_GT(r.nodes.updatesApplied, 0u)
                    << named.name << " n=" << n;
            }
        }
    }
}

TEST(PolicyRuns, UpdatePoliciesSurviveCoarseSharerVectors)
{
    // Coarse vectors make Update fan-out conservative (a sharer bit
    // covers several nodes) and suppress UpdateDrop sharer-clearing;
    // both update-based policies must still run checker-clean.
    for (ProtocolKind kind :
         {ProtocolKind::WriteUpdate, ProtocolKind::AdaptiveHybrid}) {
        MachineConfig m = kind == ProtocolKind::WriteUpdate
                              ? presets::writeUpdate(64)
                              : presets::adaptiveHybrid(64);
        m = presets::coarse(m, 4);
        ProducerConsumerMicro::Params p;
        p.iterations = 40;
        ProducerConsumerMicro wl(64, p);
        RunResult r = runWorkload(withConformance(m),
                                  wl, protocolKindName(kind));
        EXPECT_GT(r.cycles, 0u) << protocolKindName(kind);
        EXPECT_GT(r.nodes.updateEpisodes, 0u) << protocolKindName(kind);
    }
}

TEST(PolicyRuns, AdaptiveConsumerDropsOutOfUpdateStream)
{
    // Directed: a consumer that joins the sharer set and then stops
    // reading must self-invalidate after absorbing adaptiveThreshold
    // unread pushes (and must not before).
    MachineConfig m = presets::adaptiveHybrid(4, /*threshold=*/3);
    Harness h(m);
    const Addr line = testLine(0);
    // First touch places the page: node 0 becomes the home, keeping
    // both actors below on the remote push path.
    h.read(0, line);
    ASSERT_EQ(h.home(line), 0u);
    const unsigned consumer = 1;
    const unsigned producer = 2;

    h.read(consumer, line);
    ASSERT_EQ(h.l2State(consumer, line), LineState::Shared);

    h.write(producer, line);
    h.write(producer, line);
    EXPECT_EQ(h.l2State(consumer, line), LineState::Shared)
        << "dropped before the threshold";
    h.write(producer, line);
    EXPECT_EQ(h.l2State(consumer, line), LineState::Invalid)
        << "failed to drop at the threshold";
    EXPECT_EQ(h.stats(consumer).adaptiveDrops, 1u);

    // A fresh read re-joins the stream and resets the counter.
    h.read(consumer, line);
    h.write(producer, line);
    EXPECT_EQ(h.l2State(consumer, line), LineState::Shared);
    h.checkQuiescent();
}

TEST(PolicyLint, EveryRegisteredSpecIsCleanAgainstItsModel)
{
    for (ProtocolKind kind : registeredPolicyKinds()) {
        const CoherencePolicy &p = policyFor(kind);
        const verify::LintReport r = verify::lintSpecWithModel(
            p.spec(), modelCheckSetFor(kind));
        for (const auto &f : r.findings) {
            ADD_FAILURE() << p.name() << ": " << f.kind << ": "
                          << f.ctrl << " " << f.state << " x "
                          << f.event << ": " << f.detail;
        }
        EXPECT_TRUE(r.clean()) << p.name();
        EXPECT_GT(r.mcConfigs, 0u) << p.name();
        EXPECT_GT(r.mcObserved, 0u) << p.name();
    }
}

TEST(CompareRunner, JobGridCoversScenariosNodesAndPolicies)
{
    // Defaults: PCmicro+PubSub x {16,64}.
    runner::JobSet set;
    std::string err;
    ASSERT_TRUE(runner::buildGrid(*runner::findPreset("compare"), {},
                                  set, err))
        << err;
    ASSERT_EQ(set.size(),
              2 * 2 * registeredPolicyKinds().size());
    for (ProtocolKind kind : registeredPolicyKinds()) {
        const std::string name = protocolKindName(kind);
        const auto count = std::count_if(
            set.jobs().begin(), set.jobs().end(),
            [&](const runner::Job &j) {
                return j.configName == name;
            });
        EXPECT_EQ(count, 4) << name;
    }
}

TEST(CompareRunner, RejectsUnknownScenarioAndZeroNodes)
{
    const runner::SweepPreset &compare = *runner::findPreset("compare");
    runner::JobSet set;
    std::string err;
    runner::SweepAxes bad;
    bad.scenarios = {"NoSuchWorkload"};
    EXPECT_FALSE(runner::buildGrid(compare, bad, set, err));
    EXPECT_NE(err.find("'NoSuchWorkload'"), std::string::npos) << err;

    runner::SweepAxes zero;
    zero.nodes = {16, 0};
    EXPECT_FALSE(runner::buildGrid(compare, zero, set, err));
    EXPECT_NE(err.find("at 0 nodes"), std::string::npos) << err;
}
