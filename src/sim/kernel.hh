/**
 * @file
 * Conservative parallel discrete-event kernel (PDES).
 *
 * SimKernel owns S calendar EventQueues, one per node shard, and
 * executes them either sequentially (S == 1, the default and the
 * oracle) or on S worker threads synchronized conservatively: all
 * shards repeatedly agree on a window [W, E) such that no cross-shard
 * message produced inside the window can arrive before E, execute
 * their queues up to E - 1 independently, then exchange cross-shard
 * traffic at a barrier. The lookahead that sizes the window comes
 * from the fat-tree topology's cross-leaf latency floor
 * (FatTreeTopology::minCrossLeafLatencyTicks): shards are leaf-router
 * aligned, so every cross-shard message is a cross-leaf message.
 *
 * Byte identity with the sequential kernel (see DESIGN.md, "Parallel
 * event kernel") rests on every serialized quantity being a function
 * of simulation *content* only, never of S or thread interleaving;
 * the kernel's job here is to keep the window/barrier machinery and
 * the one global action (the barrier-generation stats reset) on an
 * S-invariant grid.
 */

#ifndef PCSIM_SIM_KERNEL_HH
#define PCSIM_SIM_KERNEL_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/sim/event_queue.hh"
#include "src/sim/types.hh"

namespace pcsim
{

/** Leaf-router-aligned node -> shard assignment. */
struct ShardMap
{
    /** Effective shard count after clamping to the leaf count. */
    unsigned numShards = 1;
    /** Shard of each node, contiguous whole-leaf ranges. */
    std::vector<unsigned> shardOf;

    /**
     * Assign ceil(leaves / shards) whole leaf routers to each shard.
     * @p requested is clamped to the number of leaf routers
     * (ceil(num_nodes / radix)) so a shard never splits a leaf --
     * the invariant that makes "cross-shard implies cross-leaf" hold.
     */
    static ShardMap leafAligned(unsigned num_nodes, unsigned radix,
                                unsigned requested);
};

/** Parallel-kernel telemetry (host-dependent; serialized only under
 *  the timing opt-in, never in default documents). */
struct KernelStats
{
    /** Conservative windows executed (parallel mode only). */
    std::uint64_t windows = 0;
    /** Barrier episodes crossed (3 per window). */
    std::uint64_t barriers = 0;
    /** Global actions applied at a grid boundary. */
    std::uint64_t actionsApplied = 0;
};

/**
 * The sharded event kernel. With one shard it is a thin wrapper
 * around a single EventQueue and executes bit-for-bit the classic
 * sequential simulation; with more it runs the conservative window
 * protocol described in the file header.
 */
class SimKernel
{
  public:
    /**
     * @param map         node -> shard assignment (leaf aligned).
     * @param action_grid global-action alignment grid G; must lower-
     *                    bound every cross-shard latency (1 + hop
     *                    latency) and be independent of the shard
     *                    count so action boundaries are S-invariant.
     * @param lookahead   window length once no global action can be
     *                    pending (1 + min cross-leaf latency).
     */
    SimKernel(ShardMap map, Tick action_grid, Tick lookahead);

    unsigned numShards() const { return _map.numShards; }
    const ShardMap &shardMap() const { return _map; }
    unsigned shardOf(NodeId n) const { return _map.shardOf[n]; }
    Tick actionGrid() const { return _grid; }
    Tick lookahead() const { return _lookahead; }

    EventQueue &queue(unsigned shard) { return *_queues[shard]; }
    const EventQueue &queue(unsigned shard) const
    {
        return *_queues[shard];
    }
    EventQueue &queueForNode(NodeId n)
    {
        return *_queues[_map.shardOf[n]];
    }

    /**
     * Request that @p fn run exactly once, after every event strictly
     * before boundary B = (floor(at / G) + 1) * G has executed and
     * before any event at or after B does. @p at must be the current
     * tick of the requesting shard (so B lands beyond the current
     * window). At most one action may be pending at a time; the
     * System uses this for the barrier-generation-1 stats reset.
     */
    void requestGlobalAction(Tick at,
                             std::function<void(Tick)> fn);

    /** Hook the Network registers so the kernel can have each worker
     *  flush its shard's inbound cross-shard channels at window
     *  barriers. Channels drain fully at every barrier, so shard
     *  queues alone decide termination. */
    void setFlushHook(std::function<void(unsigned)> flush);

    /**
     * Drain all shards in global (tick, phase, seq) order per shard.
     * Returns the number of events executed. Stops when every queue
     * is empty and no channel traffic is in flight, or when the next
     * event everywhere lies beyond @p limit.
     */
    std::uint64_t run(Tick limit = maxTick);

    /** Largest current tick across shards (== the sequential queue's
     *  curTick after a drain; content-determined, so S-invariant). */
    Tick maxCurTick() const;

    /** Sum of per-shard queue stats (the S-invariant rollup fields
     *  are sums of content-determined per-event counts). */
    EventQueueStats aggregateStats() const;

    const KernelStats &stats() const { return _stats; }

  private:
    std::uint64_t runSequential(Tick limit);
    std::uint64_t runParallel(Tick limit);
    void workerLoop(unsigned shard, Tick limit);
    void planWindow(Tick limit);
    void barrierWait();
    Tick boundaryAfter(Tick at) const;

    ShardMap _map;
    Tick _grid;
    Tick _lookahead;
    std::vector<std::unique_ptr<EventQueue>> _queues;
    std::function<void(unsigned)> _flush;

    // Pending global action (mutex: requested from a shard thread,
    // consumed by shard 0 at a window barrier).
    std::mutex _actionMutex;
    bool _actionPending = false;
    Tick _actionBoundary = 0;
    std::function<void(Tick)> _actionFn;
    /** True until the first action applies; while set, windows stay
     *  grid-aligned so a request can never land mid-window. */
    bool _actionsPossible = true;

    // Window-protocol shared state (written by shard 0 between
    // barriers, read by all workers after the next barrier).
    Tick _windowEnd = 0;
    bool _done = false;
    std::atomic<std::uint64_t> _executed{0};

    // Sense-reversing spin barrier.
    std::atomic<unsigned> _barArrived{0};
    std::atomic<std::uint64_t> _barGeneration{0};

    KernelStats _stats;
};

} // namespace pcsim

#endif // PCSIM_SIM_KERNEL_HH
