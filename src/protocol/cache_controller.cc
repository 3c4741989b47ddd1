#include "src/protocol/cache_controller.hh"

#include "src/protocol/backoff.hh"
#include "src/protocol/hub.hh"
#include "src/protocol/policy.hh"
#include "src/protocol/producer_controller.hh"
#include "src/sim/logging.hh"
#include "src/verify/observer.hh"

namespace pcsim
{

namespace
{

/** Side-effect-free state sample for the conformance hook (const
 *  lookup: must not touch LRU bookkeeping). */
verify::StateId
cacheStateGetter(const CacheController &ctrl, Addr line)
{
    Version v;
    return static_cast<verify::StateId>(ctrl.l2State(line, v));
}

} // namespace

CacheController::CacheController(Hub &hub, Rng rng)
    : _hub(hub),
      _cfg(hub.cfg()),
      _l1(_cfg.l1, rng.fork()),
      _l2("l2",
          _cfg.l2SetsOverride
              ? _cfg.l2SetsOverride
              : _cfg.l2SizeBytes / (_cfg.l2Ways * _cfg.lineBytes),
          _cfg.l2Ways, _cfg.lineBytes, ReplPolicy::LRU, rng.fork()),
      _mshrs(_cfg.mshrs),
      _rng(rng.fork())
{
}

LineState
CacheController::l2State(Addr line, Version &version) const
{
    const L2Entry *e = _l2.find(line);
    if (!e)
        return LineState::Invalid;
    version = e->version;
    return e->state;
}

bool
CacheController::spinCanPark(Addr addr, Version version) const
{
    if (_hub.observer() || !_l1.contains(addr))
        return false;
    const L2Entry *e = _l2.find(_hub.lineOf(addr));
    return e && canRead(e->state) && e->version == version;
}

void
CacheController::creditSpinPolls(Addr addr, std::uint64_t polls)
{
    if (!polls)
        return;
    NodeStats &st = _hub.stats();
    st.reads += polls;
    st.l1Hits += polls;
    _l1.lookup(addr);
    _l2.find(_hub.lineOf(addr))->staleUpdates = 0;
    _hub.checker().creditLoads(polls);
}

void
CacheController::performStore(Addr line, L2Entry &entry)
{
    const Version nv =
        _hub.checker().storePerformed(_hub.id(), line, entry.version);
    entry.version = nv;
    // The policy sets the post-store state and emits any protocol
    // traffic (MESI: Modified; update-based: Shared + UpdateWB).
    _hub.policy().finishStore(*this, line, entry);
    // Our own unpinned RAC copy would now be stale; drop it. A pinned
    // copy (we are the delegated home) is refreshed at downgrade time.
    if (Rac *rac = _hub.rac()) {
        const RacEntry *re = rac->find(line);
        if (re && !re->pinned)
            rac->invalidate(line);
    }
}

void
CacheController::access(bool is_write, Addr addr, AccessCallback done,
                        unsigned conflict_retries)
{
    wakeSpinner();
    const Addr line = _hub.lineOf(addr);
    NodeStats &st = _hub.stats();
    EventQueue &eq = _hub.eventQueue();

    verify::ConformanceScope scope(
        _hub.observer(), verify::Ctrl::Cache, _hub.id(), line,
        is_write ? verify::PEvent::CpuStore : verify::PEvent::CpuLoad,
        [this, line]() { return cacheStateGetter(*this, line); });

    if (is_write)
        ++st.writes;
    else
        ++st.reads;

    L2Entry *e = _l2.find(line);

    if (!is_write) {
        if (_l1.lookup(addr)) {
            // L1 hit. Inclusion guarantees an L2 copy with the
            // current version.
            if (!e || !canRead(e->state))
                panic("node %u: L1 hit without L2 inclusion for 0x%llx",
                      _hub.id(), (unsigned long long)line);
            ++st.l1Hits;
            e->staleUpdates = 0; // the update stream is being read
            const Version v = e->version;
            _hub.checker().loadPerformed(_hub.id(), line, v);
            eq.scheduleIn(_l1.hitLatency(),
                          [done = std::move(done), v]() { done(v); });
            return;
        }
        if (e && canRead(e->state)) {
            ++st.l2Hits;
            _l1.fill(addr);
            e->staleUpdates = 0;
            const Version v = e->version;
            _hub.checker().loadPerformed(_hub.id(), line, v);
            eq.scheduleIn(_cfg.l2HitLatency,
                          [done = std::move(done), v]() { done(v); });
            return;
        }
    } else {
        if (e && canWrite(e->state)) {
            ++st.l2Hits;
            performStore(line, *e);
            _l1.fill(addr);
            const Version v = e->version;
            eq.scheduleIn(_cfg.l2HitLatency,
                          [done = std::move(done), v]() { done(v); });
            return;
        }
    }

    missPath(is_write, addr, line, std::move(done), conflict_retries);
}

void
CacheController::missPath(bool is_write, Addr addr, Addr line,
                          AccessCallback done, unsigned conflict_retries)
{
    NodeStats &st = _hub.stats();
    EventQueue &eq = _hub.eventQueue();

    if (_mshrs.find(line) || _mshrs.full()) {
        // With one blocking CPU per node this can only be a same-line
        // conflict with in-flight protocol work; retry the FULL
        // access path with the shared jittered backoff -- the
        // conflicting transaction may turn this access into a plain
        // cache hit, and the jitter keeps repeated conflicts from
        // convoying with the protocol work they collide with. Undo
        // the access count (the retry will recount).
        if (is_write)
            --st.writes;
        else
            --st.reads;
        if (conflict_retries >= _cfg.maxRetries)
            panic("node %u: access to 0x%llx exceeded %u MSHR-conflict "
                  "retries (livelock?)",
                  _hub.id(), (unsigned long long)line, _cfg.maxRetries);
        ++st.retries;
        ++st.mshrConflictRetries;
        st.noteRetryAttempt(conflict_retries);
        std::size_t exp = 0;
        const Tick backoff =
            retryBackoff(_cfg, conflict_retries, _rng, &exp);
        st.backoffHist.sample(exp);
        eq.scheduleIn(backoff,
                      [this, is_write, addr, conflict_retries,
                       done = std::move(done)]() mutable {
                          access(is_write, addr, std::move(done),
                                 conflict_retries + 1);
                      });
        return;
    }

    // Read misses may be satisfied by the local RAC (victim copies,
    // pinned delegated lines, pushed updates) -- a LOCAL miss.
    if (!is_write) {
        if (Rac *rac = _hub.rac()) {
            RacEntry *re = rac->find(line);
            if (re) {
                ++st.racHits;
                ++st.localMisses;
                if (re->fromUpdate) {
                    ++st.updatesConsumed;
                    re->fromUpdate = false;
                }
                const Version v = re->version;
                l2Fill(line, LineState::Shared, v);
                _l1.fill(addr);
                if (!re->pinned)
                    rac->invalidate(line); // victim-cache promote
                _hub.checker().loadPerformed(_hub.id(), line, v);
                eq.scheduleIn(rac->accessLatency() + _cfg.busLatency,
                              [done = std::move(done), v]() { done(v); });
                return;
            }
        }
    }

    Mshr *m = _mshrs.allocate(line);
    m->reqAddr = addr;
    m->isWrite = is_write;
    m->issued = _hub.curTick();
    m->onComplete = std::move(done);

    if (is_write) {
        L2Entry *e = _l2.find(line);
        m->reqType = (e && e->state == LineState::Shared)
                         ? MsgType::ReqUpgrade
                         : MsgType::ReqExcl;
    } else {
        m->reqType = MsgType::ReqShared;
    }

    sendRequest(*m);
}

void
CacheController::sendRequest(Mshr &m)
{
    // Routing: producer table (delegated to me -> handled by my own
    // ProducerController), then consumer-table hint, then the home.
    NodeId target;
    if (delegates(_cfg.kind) && _hub.prodCtrl().isDelegated(m.addr)) {
        target = _hub.id();
    } else {
        target = invalidNode;
        if (DelegateCache *dc = _hub.delegateCache())
            target = dc->consumerLookup(m.addr);
        if (target == invalidNode)
            target = _hub.homeOf(m.addr);
    }

    m.sentTo = target;
    if (target != _hub.id())
        m.usedNetwork = true;
    m.txnId = ++_nextTxnId;

    Message msg;
    msg.type = m.reqType;
    msg.addr = m.addr;
    msg.dst = target;
    msg.requester = _hub.id();
    msg.txnId = m.txnId;
    // Carried age: the aged-priority arbiter services the
    // longest-suffering requester first (src/protocol/arbiter.hh).
    msg.retries = static_cast<std::uint32_t>(m.retries);
    _hub.send(msg);
}

void
CacheController::retry(Addr line)
{
    wakeSpinner();
    Mshr *m = _mshrs.find(line);
    if (!m)
        return;
    ++m->retries;
    NodeStats &st = _hub.stats();
    ++st.retries;
    st.noteRetryAttempt(m->retries - 1);
    if (m->retries > _cfg.maxRetries)
        panic("node %u: transaction for 0x%llx exceeded %u retries "
              "(livelock?)",
              _hub.id(), (unsigned long long)line, _cfg.maxRetries);

    // Re-check the RAC: a speculative update may have landed since
    // the NACK ("the update message is treated as the response").
    if (!m->isWrite) {
        if (Rac *rac = _hub.rac()) {
            RacEntry *re = rac->find(line);
            if (re) {
                m->haveData = true;
                m->version = re->version;
                m->fillInvalidated = false;
                if (re->fromUpdate) {
                    _hub.stats().updatesConsumed++;
                    re->fromUpdate = false;
                }
                if (!re->pinned)
                    rac->invalidate(line);
                maybeComplete(*m);
                return;
            }
        }
    }

    // An upgrade whose SHARED copy was invalidated needs fresh data.
    if (m->reqType == MsgType::ReqUpgrade) {
        L2Entry *e = _l2.find(line);
        if (!e || e->state != LineState::Shared || m->lostCopy)
            m->reqType = MsgType::ReqExcl;
    }
    m->lostCopy = false;
    sendRequest(*m);
}

void
CacheController::handleResponse(const Message &msg)
{
    wakeSpinner();
    const Addr line = msg.addr;
    NodeStats &st = _hub.stats();
    Mshr *m = _mshrs.find(line);

    verify::ConformanceScope scope(
        _hub.observer(), verify::Ctrl::Cache, _hub.id(), line,
        verify::eventOf(msg.type),
        [this, line]() { return cacheStateGetter(*this, line); });

    if (msg.type == MsgType::WritebackAck)
        return;

    if (!m) {
        // Stale response (e.g. a data reply racing an update that
        // already completed the transaction): drop.
        return;
    }
    if (msg.txnId != m->txnId) {
        // Response to an earlier transaction on this line that a
        // speculative update or retry already satisfied: stale.
        return;
    }

    if (msg.src != _hub.id())
        m->usedNetwork = true;

    switch (msg.type) {
      case MsgType::RespSharedData:
      case MsgType::SharedResp:
        m->haveData = true;
        m->version = msg.version;
        if (msg.type == MsgType::SharedResp)
            m->thirdParty = true;
        break;

      case MsgType::RespExclData:
        m->haveData = true;
        m->version = msg.version;
        m->exclusiveGrant = true;
        m->acksExpected = msg.ackCount;
        break;

      case MsgType::ExclResp:
        m->haveData = true;
        m->version = msg.version;
        m->exclusiveGrant = true;
        m->acksExpected = 0;
        m->thirdParty = true;
        break;

      case MsgType::RespUpgradeAck: {
        if (m->lostCopy) {
            // Our copy vanished while the upgrade was in flight and
            // the grant carries no data: fall back to a full fetch.
            m->reqType = MsgType::ReqExcl;
            m->acksExpected = -1;
            m->acksReceived = 0;
            m->lostCopy = false;
            sendRequest(*m);
            return;
        }
        L2Entry *e = _l2.find(line);
        if (!e || e->state != LineState::Shared)
            panic("node %u: upgrade ack for 0x%llx without S copy",
                  _hub.id(), (unsigned long long)line);
        m->haveData = true;
        m->version = e->version;
        m->exclusiveGrant = true;
        m->acksExpected = msg.ackCount;
        break;
      }

      case MsgType::InvalAck:
        ++m->acksReceived;
        break;

      case MsgType::UpdGrant:
        // Write-update: permission + data; no invalidations, so no
        // acks to collect. complete() performs the store and the
        // policy self-downgrades + returns the data (UpdateWB).
        m->haveData = true;
        m->version = msg.version;
        m->exclusiveGrant = true;
        m->acksExpected = msg.ackCount;
        break;

      case MsgType::Nack: {
        ++st.nacksReceived;
        std::size_t exp = 0;
        const Tick backoff = retryBackoff(_cfg, m->retries, _rng, &exp);
        st.backoffHist.sample(exp);
        _hub.eventQueue().scheduleIn(backoff,
                                     [this, line]() { retry(line); });
        return;
      }

      case MsgType::NackNotHome:
        ++st.nacksReceived;
        if (DelegateCache *dc = _hub.delegateCache())
            dc->consumerErase(line);
        _hub.eventQueue().scheduleIn(_cfg.hubLatency,
                                     [this, line]() { retry(line); });
        return;

      default:
        panic("node %u: unexpected response %s", _hub.id(),
              msg.toString().c_str());
    }

    maybeComplete(*m);
}

void
CacheController::maybeComplete(Mshr &m)
{
    if (m.ready())
        complete(m);
}

void
CacheController::complete(Mshr &m)
{
    const Addr line = m.addr;
    NodeStats &st = _hub.stats();

    if (m.isWrite) {
        L2Entry *e = _l2.find(line);
        if (e && e->state == LineState::Shared && !m.exclusiveGrant)
            panic("write completion without exclusivity");
        if (!e || e->state == LineState::Invalid)
            e = l2Fill(line, LineState::Exclusive, m.version);
        else
            e->state = LineState::Exclusive;
        e->version = m.version;
        performStore(line, *e);
        _l1.fill(m.reqAddr);
    } else {
        if (!m.fillInvalidated) {
            l2Fill(line, LineState::Shared, m.version);
            _l1.fill(m.reqAddr);
        }
        _hub.checker().loadPerformed(_hub.id(), line, m.version);
    }

    // Fairness telemetry: time from first issue to fill. Pure
    // accounting (no control flow or RNG draws), so default-mode
    // results stay byte-identical.
    const Tick waited = _hub.curTick() - m.issued;
    st.missLatencyHist.sample(latencyBucketOf(waited));
    if (waited > st.maxLineWaitTicks)
        st.maxLineWaitTicks = waited;

    // Miss classification (Figure 7 metrics).
    if (m.usedNetwork) {
        ++st.remoteMisses;
        if (m.thirdParty || m.acksExpected > 0)
            ++st.threeHopMisses;
        else
            ++st.twoHopMisses;
    } else {
        ++st.localMisses;
    }

    auto done = std::move(m.onComplete);
    const bool was_write = m.isWrite;
    Version final_version = m.version;
    if (was_write) {
        if (L2Entry *fe = _l2.find(line))
            final_version = fe->version;
    }
    _mshrs.free(line);

    // Delegated lines: tell the producer engine the write epoch
    // completed so it can arm the delayed intervention.
    if (was_write && delegates(_cfg.kind) &&
        _hub.prodCtrl().isDelegated(line)) {
        _hub.prodCtrl().onLocalWriteComplete(line);
    } else if (delegates(_cfg.kind) && _cfg.arbitrationActive() &&
               _hub.prodCtrl().isDelegated(line)) {
        // A read completion freed the MSHR that was blocking parked
        // remote requests at our producer engine.
        _hub.prodCtrl().maybeDrain(line);
    }

    if (done) {
        _hub.eventQueue().scheduleIn(
            _cfg.busLatency,
            [done = std::move(done), final_version]() {
                done(final_version);
            });
    }
}

L2Entry *
CacheController::l2Fill(Addr line, LineState state, Version version)
{
    L2Entry *e = _l2.allocate(
        line,
        [this](Addr victim, const L2Entry &) {
            // Never displace a line with an in-flight transaction: a
            // silent eviction would break upgrade bookkeeping.
            return _mshrs.find(victim) == nullptr;
        },
        [this](Addr victim, L2Entry &v) { evictVictim(victim, v); });
    if (!e) {
        // Pathological: every way busy. Fall back to direct overwrite
        // of the requested line's set is impossible; treat as fatal.
        panic("node %u: L2 set wedged for 0x%llx", _hub.id(),
              (unsigned long long)line);
    }
    e->state = state;
    e->version = version;
    e->staleUpdates = 0;
    return e;
}

void
CacheController::dropLine(Addr line)
{
    wakeSpinner();
    _l1.invalidateRange(line, _cfg.lineBytes);
    _l2.invalidate(line);
}

void
CacheController::evictVictim(Addr victim, L2Entry &v)
{
    NodeStats &st = _hub.stats();

    // The array recycles the victim's way as soon as this callback
    // returns, so sample the pre state from the payload and pin the
    // post state rather than re-probing the array.
    verify::ConformanceScope scope(
        _hub.observer(), verify::Ctrl::Cache, _hub.id(), victim,
        verify::PEvent::Evict, [s = v.state]() {
            return static_cast<verify::StateId>(s);
        });
    scope.overridePost(
        static_cast<verify::StateId>(LineState::Invalid));

    _l1.invalidateRange(victim, _cfg.lineBytes);

    const bool owned = v.state == LineState::Modified ||
                       v.state == LineState::Exclusive;

    if (delegates(_cfg.kind) && _hub.prodCtrl().isDelegated(victim)) {
        // Flush of a delegated line: the pinned RAC entry is the
        // surrogate memory; absorb the data there and keep the
        // delegation (see DESIGN.md, undelegation reason 2).
        _hub.prodCtrl().onLocalFlush(victim, v.version);
        return;
    }

    if (owned) {
        ++st.writebacks;
        Message wb;
        wb.type = MsgType::WritebackM;
        wb.addr = victim;
        wb.dst = _hub.homeOf(victim);
        wb.requester = _hub.id();
        wb.version = v.version;
        wb.dirty = v.state == LineState::Modified;
        _hub.send(wb);
    } else if (v.state == LineState::Shared) {
        // Victim-cache remote SHARED lines into the RAC.
        if (Rac *rac = _hub.rac()) {
            if (_hub.homeOf(victim) != _hub.id())
                rac->insert(victim, v.version);
        }
    }
}

void
CacheController::handleIntervention(const Message &msg)
{
    wakeSpinner();
    const Addr line = msg.addr;

    verify::ConformanceScope scope(
        _hub.observer(), verify::Ctrl::Cache, _hub.id(), line,
        verify::eventOf(msg.type),
        [this, line]() { return cacheStateGetter(*this, line); });

    L2Entry *e = _l2.find(line);
    const Tick lat = _cfg.busLatency; // processor bus round trip

    switch (msg.type) {
      case MsgType::Inval: {
        _tombstones.record(line, msg.version);
        if (e) {
            _l1.invalidateRange(line, _cfg.lineBytes);
            _l2.invalidate(line);
        }
        if (Rac *rac = _hub.rac()) {
            const RacEntry *re = rac->find(line);
            if (re) {
                if (re->pinned)
                    panic("node %u: Inval hit pinned RAC line 0x%llx",
                          _hub.id(), (unsigned long long)line);
                rac->invalidate(line);
            }
        }
        if (Mshr *m = _mshrs.find(line)) {
            if (m->reqType == MsgType::ReqUpgrade)
                m->lostCopy = true;
            if (!m->isWrite)
                m->fillInvalidated = true;
        }
        Message ack;
        ack.type = MsgType::InvalAck;
        ack.addr = line;
        ack.dst = msg.requester;
        ack.txnId = msg.txnId;
        _hub.sendIn(_cfg.hubLatency, ack);
        break;
      }

      case MsgType::IntervDowngrade: {
        Mshr *m = _mshrs.find(line);
        if (m && m->isWrite) {
            // Our exclusive grant is still completing: the home
            // serialized us first, so defer the intervention.
            Message nack;
            nack.type = MsgType::IntervNack;
            nack.addr = line;
            nack.dst = msg.src;
            _hub.send(nack);
            break;
        }
        if (e && e->state != LineState::Invalid) {
            const bool dirty = e->state == LineState::Modified;
            e->state = LineState::Shared;
            Message data;
            data.addr = line;
            data.version = e->version;
            data.dirty = dirty;

            Message to_req = data;
            to_req.type = MsgType::SharedResp;
            to_req.dst = msg.requester;
            to_req.txnId = msg.txnId;
            Message to_home = data;
            to_home.type = MsgType::SharedWriteback;
            to_home.dst = msg.src;
            _hub.sendIn(lat, to_req);
            _hub.sendIn(lat, to_home);
        } else {
            // Writeback race: the line already left (WritebackM is in
            // flight and, by point-to-point ordering, will reach the
            // home before this NACK does).
            Message nack;
            nack.type = MsgType::IntervNack;
            nack.addr = line;
            nack.dst = msg.src;
            _hub.send(nack);
        }
        break;
      }

      case MsgType::IntervTransfer: {
        Mshr *m = _mshrs.find(line);
        if (m && m->isWrite) {
            Message nack;
            nack.type = MsgType::IntervNack;
            nack.addr = line;
            nack.dst = msg.src;
            _hub.send(nack);
            break;
        }
        if (e && e->state != LineState::Invalid) {
            const Version v = e->version;
            _l1.invalidateRange(line, _cfg.lineBytes);
            _l2.invalidate(line);
            if (Rac *rac = _hub.rac())
                rac->invalidate(line);
            Message to_req;
            to_req.type = MsgType::ExclResp;
            to_req.addr = line;
            to_req.dst = msg.requester;
            to_req.version = v;
            to_req.txnId = msg.txnId;
            Message to_home;
            to_home.type = MsgType::TransferAck;
            to_home.addr = line;
            to_home.dst = msg.src;
            _hub.sendIn(lat, to_req);
            _hub.sendIn(lat, to_home);
        } else {
            Message nack;
            nack.type = MsgType::IntervNack;
            nack.addr = line;
            nack.dst = msg.src;
            _hub.send(nack);
        }
        break;
      }

      default:
        panic("bad intervention %s", msg.toString().c_str());
    }
}

void
CacheController::handleUpdate(const Message &msg)
{
    wakeSpinner();
    const Addr line = msg.addr;
    NodeStats &st = _hub.stats();

    verify::ConformanceScope scope(
        _hub.observer(), verify::Ctrl::Cache, _hub.id(), line,
        verify::PEvent::Update,
        [this, line]() { return cacheStateGetter(*this, line); });

    ++st.updatesReceived;

    const Version *tomb = _tombstones.find(line);
    if (tomb && msg.version <= *tomb) {
        // The push raced an invalidation for a newer epoch: stale.
        ++st.updatesDropped;
        return;
    }

    if (Mshr *m = _mshrs.find(line)) {
        if (!m->isWrite) {
            // "If the consumer processor has already requested the
            // data, the update message is treated as the response."
            m->haveData = true;
            m->version = msg.version;
            m->fillInvalidated = false;
            m->usedNetwork = true;
            ++st.updatesConsumed;
            maybeComplete(*m);
        }
        // A racing write transaction ignores the push; the producer
        // will undelegate when the exclusive request reaches it.
        return;
    }

    L2Entry *e = _l2.find(line);
    if (e && e->state != LineState::Invalid) {
        // Update-based policies refresh the copy in place (possibly
        // leaving the update stream); invalidate-based ones already
        // hold the current epoch.
        if (_cfg.updateBased())
            _hub.policy().updateSharedCopy(*this, msg, *e);
        return;
    }

    Rac *rac = _hub.rac();
    if (!rac) {
        ++st.updatesDropped;
        return;
    }
    if (rac->insert(line, msg.version)) {
        rac->find(line)->fromUpdate = true;
    } else {
        ++st.updatesDropped;
    }
}

void
CacheController::handleHomeHint(const Message &msg)
{
    wakeSpinner();
    verify::ConformanceScope scope(
        _hub.observer(), verify::Ctrl::Cache, _hub.id(), msg.addr,
        verify::PEvent::HomeHint, [this, line = msg.addr]() {
            return cacheStateGetter(*this, line);
        });

    if (DelegateCache *dc = _hub.delegateCache())
        dc->consumerInsert(msg.addr, msg.hintHome);
}

Version
CacheController::localDowngrade(Addr line, Version fallback)
{
    wakeSpinner();
    verify::ConformanceScope scope(
        _hub.observer(), verify::Ctrl::Cache, _hub.id(), line,
        verify::PEvent::LocalDowngrade,
        [this, line]() { return cacheStateGetter(*this, line); });

    L2Entry *e = _l2.find(line);
    if (!e || e->state == LineState::Invalid)
        return fallback;
    e->state = LineState::Shared;
    return e->version;
}

} // namespace pcsim
