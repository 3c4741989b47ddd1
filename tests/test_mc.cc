/** @file Model checking tests (Section 2.5): exhaustive reachability
 *  of the abstract protocol model and systematic interleaving
 *  exploration of the real implementation. */

#include <gtest/gtest.h>

#include "src/mc/protocol_model.hh"
#include "src/mc/schedule_explorer.hh"
#include "src/system/presets.hh"

using namespace pcsim;
using namespace pcsim::mc;

namespace
{

/** Explore the protocol model; invariant violations throw, and a
 *  correct model has no deadlocked state. */
GraphExplorer<ProtocolModel>::Graph
explore(ModelConfig cfg, std::uint64_t max_states = 5'000'000)
{
    ProtocolModel model(cfg);
    auto g = GraphExplorer<ProtocolModel>(model, max_states).run();
    EXPECT_TRUE(g.deadlocks.empty());
    return g;
}

/** A counter model: states 0..last, +1 transitions. Quiescent at
 *  @p quiet (-1: never), invariant fails at @p bad (-1: never). */
struct CounterModel
{
    using State = int;
    int last = 4;
    int quiet = 4;
    int bad = -1;

    State initial() const { return 0; }
    void
    transitions(const State &s, std::vector<State> &out) const
    {
        if (s < last)
            out.push_back(s + 1);
    }
    void
    checkInvariants(const State &s) const
    {
        if (s == bad)
            throw McError("boom");
    }
    bool isQuiescent(const State &s) const { return s == quiet; }
    std::string describe(const State &s) const { return std::to_string(s); }
    std::uint64_t hash(const State &s) const { return s; }
    bool equal(const State &a, const State &b) const { return a == b; }
};

} // namespace

TEST(GraphExplorerEngine, TrivialModelTerminates)
{
    const CounterModel m;
    const auto g = GraphExplorer<CounterModel>(m).run();
    EXPECT_TRUE(g.completed);
    EXPECT_EQ(g.states.size(), 5u);
    EXPECT_EQ(g.transitionsTaken, 4u);
    EXPECT_TRUE(g.deadlocks.empty());
    EXPECT_EQ(g.parent[4], 3u);
}

TEST(GraphExplorerEngine, RecordsDeadlock)
{
    // State 1 is a non-quiescent sink.
    CounterModel m;
    m.last = 1;
    m.quiet = -1;
    const auto g = GraphExplorer<CounterModel>(m).run();
    EXPECT_TRUE(g.completed);
    ASSERT_EQ(g.deadlocks.size(), 1u);
    EXPECT_EQ(g.deadlocks[0], 1u);
}

TEST(GraphExplorerEngine, DetectsInvariantViolation)
{
    CounterModel m;
    m.last = 3;
    m.quiet = 3;
    m.bad = 2;
    GraphExplorer<CounterModel> ex(m);
    EXPECT_THROW(ex.run(), McError);
}

TEST(GraphExplorerEngine, StateLimitLeavesRunIncomplete)
{
    CounterModel m;
    m.last = 100;
    m.quiet = 100;
    const auto g = GraphExplorer<CounterModel>(m, 10).run();
    EXPECT_FALSE(g.completed);
    EXPECT_LT(g.states.size(), 101u);
}

// --- Abstract protocol model (the Murphi analogue) ------------------

TEST(ProtocolMc, BaseProtocolTwoNodes)
{
    ModelConfig cfg;
    cfg.nodes = 2;
    cfg.maxWrites = 2;
    cfg.maxReads = 2;
    const auto g = explore(cfg);
    EXPECT_TRUE(g.completed);
    EXPECT_GT(g.states.size(), 100u);
}

TEST(ProtocolMc, BaseProtocolThreeNodes)
{
    ModelConfig cfg;
    cfg.nodes = 3;
    cfg.maxWrites = 2;
    cfg.maxReads = 1;
    const auto g = explore(cfg);
    EXPECT_TRUE(g.completed);
    EXPECT_GT(g.states.size(), 1000u);
}

TEST(ProtocolMc, DelegationThreeNodes)
{
    ModelConfig cfg;
    cfg.nodes = 3;
    cfg.maxWrites = 2;
    cfg.maxReads = 1;
    cfg.delegation = true;
    const auto g = explore(cfg);
    EXPECT_TRUE(g.completed);
    EXPECT_GT(g.states.size(), 1000u);
}

TEST(ProtocolMc, DelegationWithUpdatesTwoNodes)
{
    ModelConfig cfg;
    cfg.nodes = 2;
    cfg.maxWrites = 2;
    cfg.maxReads = 2;
    cfg.delegation = true;
    cfg.updates = true;
    const auto g = explore(cfg);
    EXPECT_TRUE(g.completed);
    EXPECT_GT(g.states.size(), 1000u);
}

TEST(ProtocolMc, DelegationWithUpdatesThreeNodes)
{
    ModelConfig cfg;
    cfg.nodes = 3;
    cfg.maxWrites = 2;
    cfg.maxReads = 1;
    cfg.delegation = true;
    cfg.updates = true;
    const auto g = explore(cfg);
    EXPECT_TRUE(g.completed);
    EXPECT_GT(g.states.size(), 10'000u);
}

TEST(ProtocolMc, UpdatesWithMoreReadsBounded)
{
    // The widest configuration: exhaustive up to a state budget
    // (bounded model checking; any violation inside the bound
    // throws).
    ModelConfig cfg;
    cfg.nodes = 3;
    cfg.maxWrites = 2;
    cfg.maxReads = 2;
    cfg.delegation = true;
    cfg.updates = true;
    EXPECT_GT(explore(cfg, 800'000).states.size(), 100'000u);
}

// --- Systematic interleaving over the real implementation -----------

TEST(ScheduleMc, BaseProtocolInterleavings)
{
    const Addr a = 0x70000000ull;
    std::vector<std::vector<SchedOp>> ops = {
        {{true, a}, {false, a}},
        {{true, a}},
        {{false, a}},
    };
    ScheduleExplorer ex(presets::base(16), ops);
    ScheduleResult r = ex.run();
    // 4!/(2!1!1!) = 12 interleavings x 3 staggers.
    EXPECT_EQ(r.schedules, 36u);
}

TEST(ScheduleMc, TwoLinesCrossTraffic)
{
    const Addr a = 0x70000000ull, b = 0x70000080ull;
    std::vector<std::vector<SchedOp>> ops = {
        {{true, a}, {true, b}},
        {{false, b}, {false, a}},
        {{true, b}},
    };
    ScheduleExplorer ex(presets::base(16), ops);
    ScheduleResult r = ex.run();
    EXPECT_EQ(r.schedules, 90u); // 5!/(2!2!1!) x 3
}

TEST(ScheduleMc, FullMechanismInterleavings)
{
    const Addr a = 0x70000000ull;
    // Producer writes (will saturate the detector mid-exploration in
    // some schedules), consumers read, a conflict writer intrudes.
    std::vector<std::vector<SchedOp>> ops = {
        {{true, a}, {true, a}, {true, a}},
        {{false, a}, {false, a}},
        {{true, a}},
    };
    MachineConfig cfg = presets::small(16);
    cfg.proto.detector.writeRepeatSaturation = 1; // delegate eagerly
    ScheduleExplorer ex(cfg, ops);
    ScheduleResult r = ex.run();
    EXPECT_EQ(r.schedules, 180u); // 6!/(3!2!1!) x 3
}

TEST(ScheduleMc, ShortInterventionDelayInterleavings)
{
    const Addr a = 0x70000000ull;
    std::vector<std::vector<SchedOp>> ops = {
        {{true, a}, {true, a}},
        {{false, a}},
        {{true, a}},
    };
    MachineConfig cfg = presets::small(16);
    cfg.proto.detector.writeRepeatSaturation = 1;
    cfg.proto.interventionDelay = 1;
    ScheduleExplorer ex(cfg, ops, {0, 10, 60, 300});
    ScheduleResult r = ex.run();
    EXPECT_EQ(r.schedules, 48u); // 4!/(2!1!1!) x 4
}
