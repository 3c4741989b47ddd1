/**
 * @file
 * The interconnect: message delivery with per-hop latency and hub port
 * (network interface) contention.
 *
 * Per Section 3.1 we do not model contention inside routers, but do
 * model hub port contention: each node's NI serializes injection and
 * ejection at a configurable bandwidth. Point-to-point ordering per
 * (src,dst) pair is preserved, which the protocol's writeback-race
 * handling relies on (see DESIGN.md).
 *
 * Messages with src == dst model hub-internal transfers (e.g. the
 * processor-side controller talking to the local directory): they are
 * delivered after a small local latency and are NOT counted as network
 * traffic.
 *
 * Timing model (identical under the sequential and parallel kernels):
 * injection is booked at the source NI when the message is sent, on
 * the sender's shard thread; the in-flight message then rides a
 * per-destination-node arrival heap ordered by (arrive, src, seq),
 * and ejection is booked when the destination's phase-0 "drain" event
 * runs at the arrival tick. Ejection booking therefore depends only
 * on the *content-ordered* arrival sequence at that node -- never on
 * the global order sends happened to execute in -- which is what
 * makes the parallel kernel byte-identical to the sequential oracle.
 * Cross-shard sends park in per-(src-shard, dst-shard) channels that
 * the destination worker flushes into its heaps at window barriers.
 */

#ifndef PCSIM_NET_NETWORK_HH
#define PCSIM_NET_NETWORK_HH

#include <cstdint>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "src/net/message.hh"
#include "src/net/topology.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/pool.hh"
#include "src/sim/stats.hh"
#include "src/sim/types.hh"

namespace pcsim
{

class FaultPlan;
class SimKernel;

/** Configuration for the interconnect. */
struct NetworkConfig
{
    /** Cycles per router hop (Table 1: 100 CPU cycles = 50 ns). */
    Tick hopLatency = 100;
    /** NI bandwidth in bytes per CPU cycle (16 B per 500 MHz hub
     *  cycle = 4 B per 2 GHz CPU cycle). */
    std::uint32_t niBytesPerCycle = 4;
    /** Hub-internal transfer latency for src == dst messages. */
    Tick localLatency = 16;
};

/**
 * Event-driven interconnect connecting all node hubs.
 */
class Network : public SimObject
{
  public:
    Network(EventQueue &eq, unsigned num_nodes, NetworkConfig cfg = {});

    /**
     * Route deliveries through a sharded kernel: per-node scheduling
     * moves to each node's shard queue, message storage and traffic
     * counters split into per-shard banks, and cross-shard sends are
     * exchanged at the kernel's window barriers. Without this call
     * the network behaves exactly as before on the single queue
     * passed to the constructor (tests drive it that way).
     */
    void attachKernel(SimKernel &kernel);

    /** Attach the hub that receives messages for @p node. */
    void registerHandler(NodeId node, MessageHandler *handler);

    /** Inject @p msg; it will be delivered to msg.dst's handler. */
    void send(const Message &msg);

    /** @name Pooled injection path
     *
     * Senders that build a message for immediate or deferred injection
     * can acquire pooled storage, fill it in place, and hand it back
     * via sendAcquired(). The delivery closure then captures only a
     * pointer (24 bytes instead of a by-value Message copy) and the
     * storage is recycled after the handler runs. Pools are per
     * shard: acquire takes from the calling shard's pool and release
     * returns to the calling shard's pool (slabs live until the
     * network dies, so cross-shard frees are safe).
     */
    /// @{
    Message *acquireMessage()
    {
        return _pools[callerShard()]->acquire();
    }
    void releaseMessage(Message *pm)
    {
        _pools[callerShard()]->release(pm);
    }
    /** Inject a message previously obtained from acquireMessage().
     *  Ownership passes to the network; storage is recycled after
     *  delivery. */
    void sendAcquired(Message *pm);
    /// @}

    /** Pool recycling counters summed across shards (acquire counts
     *  are content-determined; reuse counts are shard-layout
     *  dependent and only serialized under the timing opt-in). */
    Pool<Message>::Stats poolStats() const;

    const FatTreeTopology &topology() const { return _topo; }
    const NetworkConfig &config() const { return _cfg; }

    /** @name Fault injection (src/net/faults.hh).
     *
     * A run with faults enabled installs its FaultPlan here; the
     * network consults it for NI-stall windows and per-link extra
     * latency. Faults only add delay before the destination NI's
     * ejection booking, so per-(src,dst) ordering and losslessness
     * are preserved. Null (the default) is the fault-free fast path.
     */
    /// @{
    void setFaultPlan(const FaultPlan *plan);
    const FaultPlan *faultPlan() const { return _faults; }
    /** Remote messages that picked up any fault-induced delay. */
    std::uint64_t faultDelayedMessages() const;
    /** Total fault-induced delay ticks across those messages. */
    std::uint64_t faultExtraTicks() const;
    /// @}

    /** @name Traffic statistics (remote messages only).
     *
     * Counters accumulate into per-shard banks (send-side counters in
     * the sender's bank, ejection-side in the receiver's) and are
     * summed on read, so totals are independent of the shard layout.
     */
    /// @{
    std::uint64_t numMessages() const;
    std::uint64_t numBytes() const;
    std::uint64_t numLocalMessages() const;
    std::uint64_t numByType(MsgType t) const;
    Histogram hopHistogram() const;
    /** Remote messages that crossed a shard boundary (0 under the
     *  sequential kernel; host-telemetry, timing-gated). */
    std::uint64_t crossShardMessages() const;
    /// @}

    void resetStats();

    /** Drain every (src shard -> @p dst_shard) channel into the
     *  destination nodes' arrival heaps; runs on @p dst_shard's
     *  worker at a window barrier (the kernel's flush hook). */
    void flushShard(unsigned dst_shard);

  private:
    /** One remote message in flight between injection and ejection. */
    struct RouteEntry
    {
        Tick arrive;
        Tick occupancy;
        /** Source-side fault delay (stall + gray-link), carried so
         *  the whole message counts once, at ejection. */
        Tick faultDelay;
        /** Per-source sequence; with the source id it breaks
         *  same-tick arrival ties deterministically. */
        std::uint64_t seq;
        NodeId src;
        Message *pm;
    };

    /** Min-heap order on (arrive, src, seq). */
    struct RouteLater
    {
        bool
        operator()(const RouteEntry &a, const RouteEntry &b) const
        {
            if (a.arrive != b.arrive)
                return a.arrive > b.arrive;
            if (a.src != b.src)
                return a.src > b.src;
            return a.seq > b.seq;
        }
    };

    using ArrivalHeap =
        std::priority_queue<RouteEntry, std::vector<RouteEntry>,
                            RouteLater>;

    /** Per-shard statistics bank. */
    struct Bank
    {
        std::uint64_t numMessages = 0;
        std::uint64_t numBytes = 0;
        std::uint64_t numLocal = 0;
        std::uint64_t faultDelayed = 0;
        std::uint64_t faultExtraTicks = 0;
        std::uint64_t crossShard = 0;
        std::vector<std::uint64_t> perType;
        Histogram hopHist;

        Bank()
            : perType(static_cast<std::size_t>(MsgType::NumMsgTypes),
                      0),
              hopHist(8)
        {
        }
        void reset();
    };

    unsigned callerShard() const;
    EventQueue &queueOf(NodeId node) { return *_nodeQueue[node]; }
    void insertArrival(const RouteEntry &e);
    void drainArrivals(NodeId dst);

    NetworkConfig _cfg;
    FatTreeTopology _topo;
    std::vector<MessageHandler *> _handlers;

    /** Per-node shard queue (all point at the constructor queue until
     *  a kernel is attached). */
    std::vector<EventQueue *> _nodeQueue;
    std::vector<unsigned> _shardOf;
    unsigned _numShards = 1;

    /** Per-node NI next-free times (egress = injection, ingress =
     *  ejection); each entry is only touched by its node's shard. */
    std::vector<Tick> _egressFree;
    std::vector<Tick> _ingressFree;

    /** Per-source message sequence numbers (ids are (src, seq) so
     *  numbering never depends on the global send interleaving). */
    std::vector<std::uint64_t> _srcSeq;

    /** Per-destination-node in-flight arrivals, and the distinct
     *  ticks with an armed phase-0 drain event, sorted descending:
     *  a node's drains run in tick order, so each retires the
     *  smallest armed tick with a pop_back. */
    std::vector<ArrivalHeap> _arrivals;
    std::vector<std::vector<Tick>> _drainArmed;

    /** Cross-shard channels, indexed src_shard * S + dst_shard; the
     *  source worker appends during a window, the destination worker
     *  drains at the next barrier (never concurrently). */
    std::vector<std::vector<RouteEntry>> _channels;

    /** Per-(src,dst) last arrival tick, maintained only when the
     *  fault plan can inject extra link latency (the one mechanism
     *  that can reorder arrivals); clamps arrivals monotone so
     *  point-to-point FIFO survives faults. */
    std::vector<std::unordered_map<NodeId, Tick>> _lastArrive;
    bool _fifoClamp = false;

    std::vector<Bank> _banks;

    const FaultPlan *_faults = nullptr;

    /** Recycled storage for in-flight messages, one pool per shard. */
    std::vector<std::unique_ptr<Pool<Message>>> _pools;
};

} // namespace pcsim

#endif // PCSIM_NET_NETWORK_HH
