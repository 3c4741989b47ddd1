/**
 * @file
 * Liveness lint over the src/mc abstract protocol model
 * (`pcsim lint --liveness`): fairness-constrained SCC analysis of the
 * full explored state graph, finding livelock lassos -- reachable
 * regions from which no run can ever complete another operation or
 * drain to quiescence -- and hard deadlocks, each with a replayable
 * witness.
 *
 * Progress measure: W(s) = sum of remaining read/write budgets plus
 * the number of occupied MSHRs. The model only decrements budgets
 * (stamping the MSHR in the same step) and an MSHR release completes
 * an operation, so W is monotone non-increasing along every edge and
 * an edge that strictly decreases it is exactly a completed read,
 * write, or (for the update policies) write episode.
 *
 * A state is *good* when some path from it reaches a progress edge or
 * a quiescent state; *bad* states are reachable non-good states. The
 * bad region is closed under successors and every edge inside it
 * preserves W, so any cycle through it is a non-progress cycle that
 * survives strong fairness: scheduling every enabled transition
 * infinitely often still completes nothing. This is what separates a
 * livelock from the protocol's benign NACK/retry loops -- a NACKed
 * requester that *can* eventually be serviced has a path to a
 * progress edge and never enters the bad region.
 *
 * Each finding carries a lasso witness: the BFS shortest prefix from
 * the initial state into the bad region plus a cycle within it, with
 * per-hop labels (message deliveries src->dst, sends, CPU op
 * injections and completions) derived by diffing adjacent states.
 * Where the lasso's hops include concrete CPU operations the witness
 * also lists them as per-node op streams, which `pcsim lint
 * --liveness --repro FILE` converts into a replayable PCTR trace.
 *
 * One exploration serves both lint passes: exploreModel() walks a
 * configuration's graph once, collecting the spec tuples the model
 * cross-check needs and the liveness stats and findings, and caches
 * those small results (not the graph) for the rest of the process.
 */

#ifndef PCSIM_VERIFY_LIVENESS_HH
#define PCSIM_VERIFY_LIVENESS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/mc/protocol_model.hh"
#include "src/sim/json.hh"
#include "src/verify/lint.hh"

namespace pcsim::verify
{

/** One named abstract-model configuration of a check-set family. */
struct NamedModelConfig
{
    std::string name;
    mc::ModelConfig cfg;

    bool operator==(const NamedModelConfig &) const = default;
};

/** The model configurations a check set explores -- shared between
 *  the lint cross-check and the liveness pass so both verify the same
 *  family (3 nodes, write budget 2, read budget 1, one mechanism at a
 *  time). */
std::vector<NamedModelConfig> modelConfigsFor(McCheckSet set);

/** A concrete CPU operation appearing on a witness hop. */
struct WitnessOp
{
    std::uint8_t node = 0;
    bool isWrite = false;
};

/** A livelock lasso (or deadlock path: empty cycle). */
struct LivenessWitness
{
    /** Hop labels along the BFS shortest path from the initial state
     *  to the first bad (resp. deadlocked) state. */
    std::vector<std::string> prefix;
    /** Hop labels around the non-progress cycle (empty: deadlock). */
    std::vector<std::string> cycle;
    /** CPU operations injected along prefix + one cycle lap, in hop
     *  order -- the schedule a repro trace replays. */
    std::vector<WitnessOp> ops;
};

/** One liveness finding: "livelock" or "deadlock". */
struct LivenessFinding
{
    std::string kind;   ///< "livelock" | "deadlock"
    std::string config; ///< model configuration name
    std::string detail; ///< human-readable summary
    LivenessWitness witness;
};

/** Per-configuration exploration statistics. */
struct LivenessConfigStats
{
    std::string name;
    std::uint64_t states = 0;
    std::uint64_t edges = 0;
    std::uint64_t progressEdges = 0;
    std::uint64_t quiescentStates = 0;
    bool completed = false;
};

/** What one exploration of a model configuration yields: everything
 *  the model cross-check and the liveness pass read, without the
 *  state graph. */
struct ModelExploration
{
    /** Distinct spec tuples the model's FSM steps took, sorted. */
    std::vector<SpecTuple> observed;
    LivenessConfigStats stats;
    /** A deadlock finding, then a livelock finding, each optional. */
    std::vector<LivenessFinding> findings;
    /** McError text of an invariant violation, which aborts the
     *  exploration (every other field is then empty). */
    std::string violation;
};

/** Explore @p config and analyze its state graph. Results are cached
 *  per (config, maxStates) for the life of the process, so lint
 *  explores each distinct configuration once however many policies
 *  and passes ask for it. At most one finding of each kind (the one
 *  with the shortest prefix) is reported -- a bad region yields one
 *  witness, not one per state. */
ModelExploration exploreModel(const NamedModelConfig &config,
                              std::uint64_t maxStates = 5'000'000);

/** Outcome of the liveness pass over one configuration family. */
struct LivenessReport
{
    std::vector<LivenessConfigStats> configs;
    std::vector<LivenessFinding> findings;

    bool clean() const { return findings.empty(); }
};

/** exploreModel() over every configuration in @p configs, collected
 *  into one report. @throws McError on an invariant violation. */
LivenessReport analyzeLiveness(const std::vector<NamedModelConfig> &configs,
                               std::uint64_t maxStates = 5'000'000);

/** Convenience: analyzeLiveness over modelConfigsFor(set). */
LivenessReport analyzeLiveness(McCheckSet set);

/** Per-policy JSON fragment ({"policy": name, configs, findings}). */
JsonValue livenessPolicyJson(const std::string &policy,
                             const LivenessReport &r);

} // namespace pcsim::verify

#endif // PCSIM_VERIFY_LIVENESS_HH
