/**
 * @file
 * Miss Status Holding Registers for the node's coherence agent.
 *
 * One MSHR tracks one outstanding line transaction: the request type,
 * where it was sent, how many invalidation acks remain (Origin-style
 * ack collection at the requester), and NACK retry state.
 */

#ifndef PCSIM_CACHE_MSHR_HH
#define PCSIM_CACHE_MSHR_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/net/message.hh"
#include "src/sim/types.hh"

namespace pcsim
{

/** Outstanding transaction state for one line. */
struct Mshr
{
    Addr addr = invalidAddr;    ///< line address
    Addr reqAddr = invalidAddr; ///< original byte address (L1 fill)
    bool isWrite = false;
    /** The request currently outstanding (ReqShared/ReqExcl/ReqUpgrade). */
    MsgType reqType = MsgType::ReqShared;
    /** Node the request was last sent to (home or delegated home). */
    NodeId sentTo = invalidNode;

    /** Data reply received (version captured below). */
    bool haveData = false;
    Version version = 0;
    /** Reply granted exclusive permission. */
    bool exclusiveGrant = false;

    /** Acks to collect: -1 until the reply announces the count. */
    int acksExpected = -1;
    int acksReceived = 0;

    /** Our SHARED copy was invalidated while this upgrade was
     *  outstanding; a dataless upgrade ack can no longer satisfy it. */
    bool lostCopy = false;

    /** An invalidation overtook the read reply in flight: complete
     *  the load with the (legally stale) data but do not cache it. */
    bool fillInvalidated = false;

    /** Retry bookkeeping for NACKs. */
    std::uint32_t retries = 0;

    /** Current transaction id (re-stamped on every (re)send). */
    std::uint64_t txnId = 0;

    /** Issue time of the original access, for latency stats. */
    Tick issued = 0;
    /** Any network message was needed to resolve this miss. */
    bool usedNetwork = false;
    /** Resolved entirely from the local RAC. */
    bool racHit = false;
    /** Data was supplied by a third party (3-hop transaction). */
    bool thirdParty = false;
    /** Completion callback back into the CPU (receives the final
     *  line version -- the data abstraction). */
    std::function<void(Version)> onComplete;

    /** All ingredients present to finish the transaction? */
    bool
    ready() const
    {
        if (acksExpected >= 0 && acksReceived < acksExpected)
            return false;
        if (isWrite) {
            // A write needs an exclusive grant; upgrades that lost
            // their copy also need fresh data.
            if (acksExpected < 0)
                return false;
            if (lostCopy && !haveData)
                return false;
            return true;
        }
        return haveData;
    }
};

/**
 * Table of MSHRs indexed by line address.
 *
 * A fixed-capacity slot table: a tag array scanned on lookup (with one
 * blocking CPU per node, one or two entries are live) and one heap
 * Mshr per slot, so an Mshr* stays valid until its line is freed.
 * Slots are committed on demand, when every committed slot is busy,
 * so an idle node holds none.
 */
class MshrTable
{
  public:
    explicit MshrTable(std::size_t capacity) : _capacity(capacity) {}

    bool full() const { return _live >= _capacity; }
    std::size_t size() const { return _live; }

    Mshr *
    find(Addr line)
    {
        for (std::size_t i = 0; i < _lines.size(); ++i) {
            if (_lines[i] == line)
                return _slots[i].get();
        }
        return nullptr;
    }

    /** Allocate an MSHR; returns nullptr if full or already present. */
    Mshr *
    allocate(Addr line)
    {
        if (full() || find(line))
            return nullptr;
        std::size_t i = 0;
        while (i < _lines.size() && _lines[i] != invalidAddr)
            ++i;
        if (i == _lines.size()) {
            _lines.push_back(invalidAddr);
            _slots.push_back(std::make_unique<Mshr>());
        }
        _lines[i] = line;
        ++_live;
        Mshr &m = *_slots[i];
        m.addr = line;
        return &m;
    }

    /** Release @p line's MSHR (a no-op if none); its state, including
     *  the completion callback, is dropped now. */
    void
    free(Addr line)
    {
        for (std::size_t i = 0; i < _lines.size(); ++i) {
            if (_lines[i] == line) {
                _lines[i] = invalidAddr;
                *_slots[i] = Mshr{};
                --_live;
                return;
            }
        }
    }

    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t i = 0; i < _lines.size(); ++i) {
            if (_lines[i] != invalidAddr)
                fn(*_slots[i]);
        }
    }

  private:
    std::size_t _capacity;
    std::size_t _live = 0;
    /** Line of each committed slot; invalidAddr marks a free one. */
    std::vector<Addr> _lines;
    std::vector<std::unique_ptr<Mshr>> _slots;
};

} // namespace pcsim

#endif // PCSIM_CACHE_MSHR_HH
