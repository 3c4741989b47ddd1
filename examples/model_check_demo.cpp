/**
 * @file
 * Model checking demo (Section 2.5): exhaustive reachability analysis
 * of the abstract protocol model -- base protocol, delegation, and
 * delegation + speculative updates -- followed by systematic
 * interleaving exploration of the real simulator.
 *
 * This reproduces the paper's verification methodology: "we built a
 * formal model of our protocols and performed an exhaustive
 * reachability analysis of the model for a small configuration size".
 */

#include <cstdio>

#include "src/mc/protocol_model.hh"
#include "src/mc/schedule_explorer.hh"
#include "src/system/presets.hh"

using namespace pcsim;
using namespace pcsim::mc;

namespace
{

void
explore(const char *label, ModelConfig cfg,
        std::uint64_t max_states = 5'000'000)
{
    ProtocolModel model(cfg);
    GraphExplorer<ProtocolModel> ex(model, max_states);
    try {
        const auto g = ex.run();
        std::printf("  %-44s %9zu states %10llu transitions %s\n",
                    label, g.states.size(),
                    (unsigned long long)g.transitionsTaken,
                    g.completed ? "(exhaustive)" : "(bounded)");
        for (std::uint32_t id : g.deadlocks)
            std::printf("  DEADLOCK:\n%s\n%s\n",
                        model.describe(g.states[id]).c_str(),
                        model.blockedSummary(g.states[id]).c_str());
    } catch (const McError &e) {
        std::printf("  %-44s VIOLATION:\n%s\n", label, e.what());
    }
}

} // namespace

int
main()
{
    std::printf("pcsim explicit-state model checking (Murphi-style, "
                "Section 2.5)\n");
    std::printf("invariants: single writer, data-value consistency, "
                "directory consistency,\n"
                "            channel bounds; deadlock detection on "
                "every state\n\n");

    {
        ModelConfig cfg;
        cfg.nodes = 3;
        cfg.maxWrites = 2;
        cfg.maxReads = 1;
        explore("base write-invalidate, 3 nodes", cfg);
        cfg.delegation = true;
        explore("+ directory delegation", cfg);
        cfg.updates = true;
        explore("+ speculative updates", cfg);
        cfg.maxReads = 2;
        explore("+ speculative updates, 2 reads/node", cfg, 800'000);
    }

    std::printf("\nsystematic interleaving exploration of the REAL "
                "implementation\n(every schedule runs with the "
                "coherence/SC checker enabled):\n\n");

    const Addr a = 0x70000000ull;
    {
        std::vector<std::vector<SchedOp>> ops = {
            {{true, a}, {true, a}, {true, a}},
            {{false, a}, {false, a}},
            {{true, a}},
        };
        MachineConfig cfg = presets::small(16);
        cfg.proto.detector.writeRepeatSaturation = 1;
        ScheduleExplorer ex(cfg, ops);
        ScheduleResult r = ex.run();
        std::printf("  full mechanisms, 6 ops, 3 CPUs: %llu schedules "
                    "executed, %llu ops -- all clean\n",
                    (unsigned long long)r.schedules,
                    (unsigned long long)r.opsExecuted);
    }
    {
        std::vector<std::vector<SchedOp>> ops = {
            {{true, a}, {false, a}},
            {{true, a}, {false, a}},
            {{false, a}, {true, a}},
        };
        ScheduleExplorer ex(presets::base(16), ops);
        ScheduleResult r = ex.run();
        std::printf("  base protocol, 6 ops, 3 CPUs: %llu schedules "
                    "executed, %llu ops -- all clean\n",
                    (unsigned long long)r.schedules,
                    (unsigned long long)r.opsExecuted);
    }

    std::printf("\nDuring development this machinery caught two real "
                "protocol bugs:\n"
                " 1. a stale speculative update racing a newer "
                "writer's invalidation\n    (fixed with epoch-carrying "
                "invals + a recently-invalidated buffer),\n"
                " 2. a data reply outliving its transaction after an "
                "update satisfied the\n    read (fixed with "
                "transaction ids on request/response pairs).\n");
    return 0;
}
