#include "src/net/network.hh"

#include <algorithm>
#include <functional>

#include "src/net/faults.hh"
#include "src/sim/kernel.hh"
#include "src/sim/logging.hh"

namespace pcsim
{

Network::Network(EventQueue &eq, unsigned num_nodes, NetworkConfig cfg)
    : SimObject(eq, "network"),
      _cfg(cfg),
      _topo(num_nodes),
      _handlers(num_nodes, nullptr),
      _nodeQueue(num_nodes, &eq),
      _shardOf(num_nodes, 0),
      _egressFree(num_nodes, 0),
      _ingressFree(num_nodes, 0),
      _srcSeq(num_nodes, 0),
      _arrivals(num_nodes),
      _drainArmed(num_nodes),
      _banks(1)
{
    _pools.emplace_back(std::make_unique<Pool<Message>>());
}

void
Network::attachKernel(SimKernel &kernel)
{
    const unsigned shards = kernel.numShards();
    _numShards = shards;
    for (NodeId n = 0; n < _handlers.size(); ++n) {
        _shardOf[n] = kernel.shardOf(n);
        _nodeQueue[n] = &kernel.queueForNode(n);
    }
    _channels.assign(std::size_t(shards) * shards, {});
    _banks.resize(shards);
    while (_pools.size() < shards)
        _pools.emplace_back(std::make_unique<Pool<Message>>());
    kernel.setFlushHook(
        [this](unsigned dst_shard) { flushShard(dst_shard); });
}

unsigned
Network::callerShard() const
{
    return currentShardId();
}

void
Network::registerHandler(NodeId node, MessageHandler *handler)
{
    if (node >= _handlers.size())
        panic("registerHandler: node %u out of range", node);
    _handlers[node] = handler;
}

void
Network::send(const Message &msg)
{
    Message *pm = acquireMessage();
    *pm = msg;
    sendAcquired(pm);
}

void
Network::setFaultPlan(const FaultPlan *plan)
{
    _faults = plan;
    // Extra link latency is the only mechanism that can reorder
    // same-(src,dst) arrivals; arm the FIFO clamp only then so the
    // fault-free fast path stays map-free.
    _fifoClamp = plan && plan->anyLatencyFaults();
    if (_fifoClamp && _lastArrive.empty())
        _lastArrive.resize(_handlers.size());
}

void
Network::sendAcquired(Message *pm)
{
    Message &msg = *pm;
    if (msg.src >= _handlers.size() || msg.dst >= _handlers.size())
        panic("send: bad endpoints %u -> %u", msg.src, msg.dst);
    const NodeId src = msg.src;
    const NodeId dst = msg.dst;
    MessageHandler *handler = _handlers[dst];
    if (!handler)
        panic("send: no handler registered for node %u", dst);

    const Tick now = _nodeQueue[src]->curTick();
    const std::uint64_t seq = ++_srcSeq[src];
    msg.msgId = (std::uint64_t(src) << 40) | seq;

    if (src == dst) {
        // Hub-internal transfer: small fixed latency, no NI occupancy,
        // not network traffic.
        ++_banks[_shardOf[src]].numLocal;
        const Tick deliver = now + _cfg.localLatency;
        _nodeQueue[src]->schedule(deliver, [this, handler, pm]() {
            handler->handleMessage(*pm);
            releaseMessage(pm);
        });
        return;
    }

    const std::uint32_t bytes = msg.sizeBytes();
    const Tick occupancy =
        std::max<Tick>(1, bytes / _cfg.niBytesPerCycle);
    const unsigned hops = _topo.hops(src, dst);

    // Serialize injection at the source NI; a fault-injected stall
    // window pauses injection entirely.
    Tick inject = std::max(now, _egressFree[src]);
    Tick fault_delay = 0;
    if (_faults) {
        const Tick clear = _faults->stallClearTick(src, inject);
        fault_delay += clear - inject;
        inject = clear;
    }
    _egressFree[src] = inject + occupancy;

    // Wire latency across the fat tree, plus any gray-link / hot-spot
    // degradation. The fault delay accumulated so far is carried with
    // the message and counted once at ejection.
    Tick extra = 0;
    if (_faults)
        extra = _faults->extraLatency(src, dst, inject);
    fault_delay += extra;
    Tick arrive = inject + occupancy + _cfg.hopLatency * hops + extra;

    // NI serialization alone keeps per-(src,dst) arrivals monotone;
    // fault-injected extra latency can reorder them, so clamp the
    // arrival tick to preserve point-to-point FIFO (ties then break
    // by per-source sequence in the arrival heap).
    if (_fifoClamp) {
        Tick &last = _lastArrive[src][dst];
        if (arrive < last)
            arrive = last;
        last = arrive;
    }

    Bank &bank = _banks[_shardOf[src]];
    ++bank.numMessages;
    bank.numBytes += bytes;
    ++bank.perType[static_cast<std::size_t>(msg.type)];
    bank.hopHist.sample(hops);

    const RouteEntry e{arrive, occupancy, fault_delay, seq, src, pm};
    const unsigned dst_shard = _shardOf[dst];
    if (dst_shard == _shardOf[src]) {
        insertArrival(e);
    } else {
        ++bank.crossShard;
        _channels[std::size_t(_shardOf[src]) * _numShards + dst_shard]
            .push_back(e);
    }
}

void
Network::insertArrival(const RouteEntry &e)
{
    const NodeId dst = e.pm->dst;
    _arrivals[dst].push(e);
    // One phase-0 drain per distinct (node, arrival tick): the event
    // count is a function of content, never of insertion order.
    std::vector<Tick> &armed = _drainArmed[dst];
    const auto it = std::lower_bound(armed.begin(), armed.end(),
                                     e.arrive, std::greater<Tick>());
    if (it != armed.end() && *it == e.arrive)
        return;
    armed.insert(it, e.arrive);
    _nodeQueue[dst]->schedulePhase0(
        e.arrive, [this, dst]() { drainArrivals(dst); });
}

void
Network::drainArrivals(NodeId dst)
{
    EventQueue &q = *_nodeQueue[dst];
    const Tick now = q.curTick();
    std::vector<Tick> &armed = _drainArmed[dst];
    if (armed.empty() || armed.back() != now)
        panic("drain at node %u, tick %llu: not the earliest armed tick",
              dst, (unsigned long long)now);
    armed.pop_back();
    ArrivalHeap &heap = _arrivals[dst];
    MessageHandler *handler = _handlers[dst];
    while (!heap.empty() && heap.top().arrive == now) {
        const RouteEntry e = heap.top();
        heap.pop();

        // Serialize ejection at the destination NI (also stallable)
        // in (arrive, src, seq) order -- the content order, however
        // the sends interleaved.
        Tick eject = std::max(e.arrive, _ingressFree[dst]);
        Tick fault_delay = e.faultDelay;
        if (_faults) {
            const Tick clear = _faults->stallClearTick(dst, eject);
            fault_delay += clear - eject;
            eject = clear;
        }
        _ingressFree[dst] = eject + e.occupancy;
        const Tick deliver = eject + e.occupancy;

        if (fault_delay) {
            Bank &bank = _banks[_shardOf[dst]];
            ++bank.faultDelayed;
            bank.faultExtraTicks += fault_delay;
        }

        Message *pm = e.pm;
        q.schedule(deliver, [this, handler, pm]() {
            handler->handleMessage(*pm);
            releaseMessage(pm);
        });
    }
}

void
Network::flushShard(unsigned dst_shard)
{
    for (unsigned src_shard = 0; src_shard < _numShards; ++src_shard) {
        auto &ch =
            _channels[std::size_t(src_shard) * _numShards + dst_shard];
        for (const RouteEntry &e : ch)
            insertArrival(e);
        ch.clear();
    }
}

Pool<Message>::Stats
Network::poolStats() const
{
    Pool<Message>::Stats sum;
    for (const auto &p : _pools) {
        const Pool<Message>::Stats &s = p->stats();
        sum.acquires += s.acquires;
        sum.reuses += s.reuses;
        sum.releases += s.releases;
        sum.slabs += s.slabs;
    }
    return sum;
}

std::uint64_t
Network::numMessages() const
{
    std::uint64_t n = 0;
    for (const Bank &b : _banks)
        n += b.numMessages;
    return n;
}

std::uint64_t
Network::numBytes() const
{
    std::uint64_t n = 0;
    for (const Bank &b : _banks)
        n += b.numBytes;
    return n;
}

std::uint64_t
Network::numLocalMessages() const
{
    std::uint64_t n = 0;
    for (const Bank &b : _banks)
        n += b.numLocal;
    return n;
}

std::uint64_t
Network::numByType(MsgType t) const
{
    std::uint64_t n = 0;
    for (const Bank &b : _banks)
        n += b.perType[static_cast<std::size_t>(t)];
    return n;
}

Histogram
Network::hopHistogram() const
{
    Histogram merged(8);
    for (const Bank &b : _banks)
        merged.merge(b.hopHist);
    return merged;
}

std::uint64_t
Network::crossShardMessages() const
{
    std::uint64_t n = 0;
    for (const Bank &b : _banks)
        n += b.crossShard;
    return n;
}

std::uint64_t
Network::faultDelayedMessages() const
{
    std::uint64_t n = 0;
    for (const Bank &b : _banks)
        n += b.faultDelayed;
    return n;
}

std::uint64_t
Network::faultExtraTicks() const
{
    std::uint64_t n = 0;
    for (const Bank &b : _banks)
        n += b.faultExtraTicks;
    return n;
}

void
Network::Bank::reset()
{
    numMessages = 0;
    numBytes = 0;
    numLocal = 0;
    faultDelayed = 0;
    faultExtraTicks = 0;
    crossShard = 0;
    std::fill(perType.begin(), perType.end(), 0);
    hopHist.reset();
}

void
Network::resetStats()
{
    for (Bank &b : _banks)
        b.reset();
}

} // namespace pcsim
