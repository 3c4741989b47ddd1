#include "src/protocol/hub.hh"

#include "src/protocol/policy.hh"
#include "src/sim/logging.hh"
#include "src/verify/observer.hh"
#include "src/verify/trace.hh"

namespace pcsim
{

Hub::Hub(EventQueue &eq, Network &net, MemoryMap &mem_map,
         CoherenceChecker &checker, const ProtocolConfig &cfg, NodeId id,
         Rng rng)
    : SimObject(eq, "hub" + std::to_string(id)),
      _id(id),
      _cfg(cfg),
      _net(net),
      _memMap(mem_map),
      _checker(checker),
      _policy(&policyFor(cfg.kind))
{
    if (delegates(cfg.kind) && !cfg.racEnabled)
        fatal("delegation requires a RAC (pinned surrogate memory)");

    if (cfg.racEnabled)
        _rac = std::make_unique<Rac>(cfg.rac, rng.fork());
    if (delegates(cfg.kind))
        _delegate = std::make_unique<DelegateCache>(cfg.delegate,
                                                    rng.fork());

    _cacheCtrl = std::make_unique<CacheController>(*this, rng.fork());
    _dirCtrl = std::make_unique<DirController>(*this, rng.fork());
    _prodCtrl = std::make_unique<ProducerController>(*this);

    _stats.detectorBitsPerEntry = pcDetectorBitsPerEntry(cfg.numNodes);

    net.registerHandler(id, this);
    checker.addNode(this);
}

Hub::~Hub() = default;

void
Hub::cpuAccess(bool is_write, Addr addr, AccessCallback done)
{
    _cacheCtrl->access(is_write, addr, std::move(done));
}

void
Hub::send(const Message &msg)
{
    if (_observer)
        _observer->noteSend(msg);
    Message *pm = _net.acquireMessage(_id);
    *pm = msg;
    pm->src = _id;
    _net.sendAcquired(pm);
}

void
Hub::sendAt(Tick when, const Message &msg)
{
    if (_observer)
        _observer->noteSend(msg);
    Message *pm = _net.acquireMessage(_id);
    *pm = msg;
    pm->src = _id;
    _eq.schedule(when, [this, pm]() { _net.sendAcquired(pm); });
}

std::string
Hub::lineTrace(Addr line) const
{
    return _trace ? _trace->format(line) : std::string();
}

void
Hub::handleMessage(const Message &msg)
{
    if (_trace)
        _trace->record(msg, curTick());

    switch (msg.type) {
      case MsgType::ReqShared:
      case MsgType::ReqExcl:
      case MsgType::ReqUpgrade:
        if (delegates(_cfg.kind) && _prodCtrl->isDelegated(msg.addr)) {
            _prodCtrl->handleRequest(msg);
        } else if (homeOf(msg.addr) == _id) {
            _dirCtrl->handleRequest(msg);
        } else {
            // A stale consumer-table hint pointed here after we
            // undelegated: bounce the requester back to the home.
            Message nack;
            nack.type = MsgType::NackNotHome;
            nack.addr = msg.addr;
            nack.dst = msg.requester;
            nack.txnId = msg.txnId;
            send(nack);
        }
        break;

      case MsgType::WritebackM:
        if (homeOf(msg.addr) != _id)
            panic("hub%u: writeback for line not homed here", _id);
        _dirCtrl->handleWriteback(msg);
        break;

      case MsgType::SharedWriteback:
        _dirCtrl->handleSharedWriteback(msg);
        break;
      case MsgType::TransferAck:
        _dirCtrl->handleTransferAck(msg);
        break;
      case MsgType::IntervNack:
        _dirCtrl->handleIntervNack(msg);
        break;
      case MsgType::Undele:
        _dirCtrl->handleUndele(msg);
        break;

      case MsgType::Delegate:
        _prodCtrl->handleDelegate(msg);
        break;

      case MsgType::Inval:
      case MsgType::IntervDowngrade:
      case MsgType::IntervTransfer:
        _cacheCtrl->handleIntervention(msg);
        break;

      case MsgType::Update:
        _cacheCtrl->handleUpdate(msg);
        break;

      case MsgType::UpdateWB:
        if (homeOf(msg.addr) != _id)
            panic("hub%u: UpdateWB for line not homed here", _id);
        _dirCtrl->handleUpdateWB(msg);
        break;
      case MsgType::UpdateDrop:
        _dirCtrl->handleUpdateDrop(msg);
        break;

      case MsgType::HomeHint:
        _cacheCtrl->handleHomeHint(msg);
        break;

      default:
        // Everything else is a response to one of our requests.
        _cacheCtrl->handleResponse(msg);
        break;
    }
}

LineState
Hub::l2State(Addr line, Version &version) const
{
    return _cacheCtrl->l2State(line, version);
}

bool
Hub::racCopy(Addr line, Version &version, bool &pinned) const
{
    if (!_rac)
        return false;
    const RacEntry *e = _rac->find(line);
    if (!e)
        return false;
    version = e->version;
    pinned = e->pinned;
    return true;
}

const ProducerEntry *
Hub::producerEntry(Addr line) const
{
    return _prodCtrl->entryFor(line);
}

DirEntry
Hub::homeDirEntry(Addr line) const
{
    return _dirCtrl->dirEntry(line);
}

} // namespace pcsim
