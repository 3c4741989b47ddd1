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
 * the sender's shard thread. The in-flight message then joins its
 * destination's arrival set, ordered by (arrive, src, seq), and one
 * delivery event is queued for the earliest tick it could eject
 * (arrive + occupancy), in the position a booking at the arrival tick
 * would give it (EventOrder{arrive, early}). Ejection is booked
 * lazily, when that event runs: it books every pending arrival at the
 * node up to and including its own, in (arrive, src, seq) order --
 * all of them are final by then, since any later send arrives after
 * the current tick. A message whose booked tick is later (the port
 * was busy or stalled) re-arms its event once, at that tick.
 * Ejection booking therefore depends only on the *content-ordered*
 * arrival sequence at that node -- never on the global order sends
 * happened to execute in -- which is what makes the parallel kernel
 * byte-identical to the sequential oracle. Cross-shard sends park in
 * per-(src-shard, dst-shard) channels that the destination worker
 * flushes into its arrival sets at window barriers.
 */

#ifndef PCSIM_NET_NETWORK_HH
#define PCSIM_NET_NETWORK_HH

#include <cstdint>
#include <memory>
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
     * shard, and each is only touched by its shard's worker: a sender
     * acquires from its own node's shard, and a delivery releases to
     * the destination's (slabs live until the network dies, so a
     * message may return to a pool other than the one it came from).
     */
    /// @{
    /** Pooled storage for a message that node @p src will send. */
    Message *acquireMessage(NodeId src)
    {
        return _pools[_shardOf[src]]->acquire();
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

    /**
     * Zero the traffic counters at stats boundary @p boundary (all
     * events before it have run, none at or after it). Ejection-side
     * counters from then on count only arrivals at or after
     * @p boundary, the ones a booking at the arrival tick would have
     * counted after the reset.
     */
    void resetStats(Tick boundary);

    /** Move every (src shard -> @p dst_shard) channel into the
     *  destination nodes' arrival sets; runs on @p dst_shard's worker
     *  at a window barrier (the kernel's flush hook). */
    void flushShard(unsigned dst_shard);

  private:
    /** One remote message in flight between injection and delivery.
     *  Its delivery event points at it, and the destination's arrival
     *  list holds it until ejection is booked. */
    struct Route
    {
        /** Next arrival at the same node, in (arrive, src, seq)
         *  order. */
        Route *next;
        Message *pm;
        Tick arrive;
        Tick occupancy;
        /** Source-side fault delay (stall + gray-link), carried so
         *  the whole message counts once, at ejection. */
        Tick faultDelay;
        /** Booked delivery tick; 0 until ejection is booked. */
        Tick deliver;
        /** Per-source sequence; with the source id it breaks
         *  same-tick arrival ties deterministically. */
        std::uint64_t seq;
        NodeId src;
        NodeId dst;
    };

    /** (arrive, src, seq) order: the content order of arrivals. */
    static bool
    arrivesBefore(const Route *a, const Route *b)
    {
        if (a->arrive != b->arrive)
            return a->arrive < b->arrive;
        if (a->src != b->src)
            return a->src < b->src;
        return a->seq < b->seq;
    }

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

    EventQueue &queueOf(NodeId node) { return *_nodeQueue[node]; }
    void insertArrival(Route *r);
    /** The delivery event of @p r: book, then deliver or re-arm. */
    void deliverArrival(Route *r);
    /** Book ejection at @p dst for every pending arrival up to and
     *  including @p upto, in (arrive, src, seq) order. */
    void bookEjection(NodeId dst, const Route *upto);

    NetworkConfig _cfg;
    FatTreeTopology _topo;
    std::vector<MessageHandler *> _handlers;

    /** Per-node shard queue (all point at the constructor queue until
     *  a kernel is attached). */
    std::vector<EventQueue *> _nodeQueue;
    std::vector<unsigned> _shardOf;
    unsigned _numShards = 1;

    /** Per-node NI injection next-free times; each entry is only
     *  touched by its node's shard. */
    std::vector<Tick> _egressFree;

    /** Per-source message sequence numbers (ids are (src, seq) so
     *  numbering never depends on the global send interleaving). */
    std::vector<std::uint64_t> _srcSeq;

    /** A node's ejection side, only touched by its node's shard. */
    struct Ingress
    {
        /** NI ejection next-free time. */
        Tick free = 0;
        /** Arrival tick booked last. Booking runs in arrival order,
         *  so a new tick is one drain event the unfolded model would
         *  have run. */
        Tick lastBooked = 0;
        /** Arrivals not yet booked, in (arrive, src, seq) order. */
        Route *head = nullptr;
        Route *tail = nullptr;
    };
    std::vector<Ingress> _ingress;

    /** Cross-shard channels, indexed src_shard * S + dst_shard; the
     *  source worker appends during a window, the destination worker
     *  empties it at the next barrier (never concurrently). */
    std::vector<std::vector<Route *>> _channels;

    /** Per-(src,dst) last arrival tick, maintained only when the
     *  fault plan can inject extra link latency (the one mechanism
     *  that can reorder arrivals); clamps arrivals monotone so
     *  point-to-point FIFO survives faults. */
    std::vector<std::unordered_map<NodeId, Tick>> _lastArrive;
    bool _fifoClamp = false;

    std::vector<Bank> _banks;
    /** Ejection-side counters skip arrivals before this tick (the
     *  last resetStats() boundary). */
    Tick _statsFrom = 0;

    const FaultPlan *_faults = nullptr;

    /** Recycled storage for in-flight messages and their routes, one
     *  pool each per shard. */
    std::vector<std::unique_ptr<Pool<Message>>> _pools;
    std::vector<std::unique_ptr<Pool<Route>>> _routePools;
};

} // namespace pcsim

#endif // PCSIM_NET_NETWORK_HH
