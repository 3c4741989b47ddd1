#include "src/net/network.hh"

#include <algorithm>

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
      _srcSeq(num_nodes, 0),
      _ingress(num_nodes),
      _banks(1)
{
    _pools.emplace_back(std::make_unique<Pool<Message>>());
    _routePools.emplace_back(std::make_unique<Pool<Route>>());
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
    while (_pools.size() < shards) {
        _pools.emplace_back(std::make_unique<Pool<Message>>());
        _routePools.emplace_back(std::make_unique<Pool<Route>>());
    }
    kernel.setFlushHook(
        [this](unsigned dst_shard) { flushShard(dst_shard); });
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
    // Checked before the sender's shard picks the pool.
    if (msg.src >= _handlers.size())
        panic("send: bad endpoints %u -> %u", msg.src, msg.dst);
    Message *pm = acquireMessage(msg.src);
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
            _pools[_shardOf[pm->src]]->release(pm);
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
    // by per-source sequence in the arrival list).
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

    Route *r = _routePools[_shardOf[src]]->acquire();
    *r = Route{nullptr, pm, arrive, occupancy, fault_delay, 0, seq, src,
               dst};
    const unsigned dst_shard = _shardOf[dst];
    if (dst_shard == _shardOf[src]) {
        insertArrival(r);
    } else {
        ++bank.crossShard;
        _channels[std::size_t(_shardOf[src]) * _numShards + dst_shard]
            .push_back(r);
    }
}

void
Network::insertArrival(Route *r)
{
    const NodeId dst = r->dst;
    // Arrivals mostly come in content order; an earlier one walks.
    Ingress &in = _ingress[dst];
    r->next = nullptr;
    if (!in.head) {
        in.head = in.tail = r;
    } else if (arrivesBefore(in.tail, r)) {
        in.tail->next = r;
        in.tail = r;
    } else {
        Route **at = &in.head;
        while (arrivesBefore(*at, r))
            at = &(*at)->next;
        r->next = *at;
        *at = r;
    }
    // One event per delivery, due when an idle port would eject it and
    // placed where a booking at the arrival tick would have put it.
    _nodeQueue[dst]->schedule(r->arrive + r->occupancy,
                              EventOrder{r->arrive, true},
                              [this, r]() { deliverArrival(r); });
}

void
Network::deliverArrival(Route *r)
{
    const NodeId dst = r->dst;
    if (!r->deliver)
        bookEjection(dst, r);
    EventQueue &q = *_nodeQueue[dst];
    if (r->deliver > q.curTick()) {
        q.rearm(r->deliver);
        return;
    }
    // Delivery runs on the destination's shard: its pools are the
    // caller's.
    Message *pm = r->pm;
    const unsigned shard = _shardOf[dst];
    _routePools[shard]->release(r);
    _handlers[dst]->handleMessage(*pm);
    _pools[shard]->release(pm);
}

void
Network::bookEjection(NodeId dst, const Route *upto)
{
    Ingress &in = _ingress[dst];
    Route *r;
    do {
        r = in.head;
        if (!r)
            panic("node %u: delivery of %u:%llu is not pending", dst,
                  upto->src, (unsigned long long)upto->seq);
        in.head = r->next;
        if (!in.head)
            in.tail = nullptr;
        if (r->arrive != in.lastBooked) {
            // The event totals count one drain per distinct (node,
            // arrival tick); see RunPerf::drainsFolded.
            in.lastBooked = r->arrive;
            _nodeQueue[dst]->creditFolded(1);
        }

        // Serialize ejection at the destination NI (also stallable)
        // in (arrive, src, seq) order -- the content order, however
        // the sends interleaved.
        Tick eject = std::max(r->arrive, in.free);
        Tick fault_delay = r->faultDelay;
        if (_faults) {
            const Tick clear = _faults->stallClearTick(dst, eject);
            fault_delay += clear - eject;
            eject = clear;
        }
        r->deliver = eject + r->occupancy;
        in.free = r->deliver;

        if (fault_delay && r->arrive >= _statsFrom) {
            Bank &bank = _banks[_shardOf[dst]];
            ++bank.faultDelayed;
            bank.faultExtraTicks += fault_delay;
        }
    } while (r != upto);
}

void
Network::flushShard(unsigned dst_shard)
{
    for (unsigned src_shard = 0; src_shard < _numShards; ++src_shard) {
        auto &ch =
            _channels[std::size_t(src_shard) * _numShards + dst_shard];
        for (Route *r : ch)
            insertArrival(r);
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
Network::resetStats(Tick boundary)
{
    for (Bank &b : _banks)
        b.reset();
    _statsFrom = boundary;
}

} // namespace pcsim
