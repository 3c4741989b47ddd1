/**
 * @file
 * Processor-side coherence agent.
 *
 * Owns the node's L1D and L2 arrays and the MSHRs. Responsibilities:
 *  - service CPU loads/stores (hits locally, misses via the protocol),
 *  - route requests: producer table (line delegated to this node) ->
 *    consumer table hint (delegated elsewhere) -> default home,
 *  - collect data replies and invalidation acks (Origin-style ack
 *    collection at the requester),
 *  - retry on NACKs with randomized backoff; drop stale consumer-table
 *    hints on NackNotHome,
 *  - respond to interventions (Inval / downgrade / transfer),
 *  - victim-cache remote lines into the RAC and service read misses
 *    from it; absorb speculative UPDATE pushes (Section 2.4.3).
 */

#ifndef PCSIM_PROTOCOL_CACHE_CONTROLLER_HH
#define PCSIM_PROTOCOL_CACHE_CONTROLLER_HH

#include <functional>

#include "src/cache/cache_array.hh"
#include "src/cache/l1_cache.hh"
#include "src/cache/line_state.hh"
#include "src/cache/mshr.hh"
#include "src/cache/tombstone_buffer.hh"
#include "src/net/message.hh"
#include "src/protocol/config.hh"
#include "src/sim/random.hh"
#include "src/sim/types.hh"

namespace pcsim
{

class Hub;

/** An L2 line: MESI state plus the data-version abstraction. */
struct L2Entry
{
    LineState state = LineState::Invalid;
    Version version = 0;
    /** Update-based policies: pushes absorbed since the last local
     *  read (the adaptive hybrid's self-invalidation counter). */
    std::uint32_t staleUpdates = 0;
};

/** Completion callback: delivers the line version that was read or
 *  produced (the data abstraction; see DESIGN.md). */
using AccessCallback = std::function<void(Version)>;

/** The processor-side controller. */
class CacheController
{
  public:
    CacheController(Hub &hub, Rng rng);

    /** CPU access entry point (called via Hub::cpuAccess).
     *  @p conflict_retries counts MSHR-conflict reschedules of this
     *  same access (internal; feeds the maxRetries guard). */
    void access(bool is_write, Addr addr, AccessCallback done,
                unsigned conflict_retries = 0);

    /** @name Network-message entry points (dispatched by the Hub). */
    /// @{
    void handleResponse(const Message &msg);
    void handleIntervention(const Message &msg);
    void handleUpdate(const Message &msg);
    void handleHomeHint(const Message &msg);
    /// @}

    /**
     * Locally downgrade an M/E line to S (delayed or on-demand
     * intervention issued by the ProducerController).
     * @return the line's current version; if the line is no longer
     *         present, returns @p fallback.
     */
    Version localDowngrade(Addr line, Version fallback);

    /** Is a transaction outstanding for @p line? */
    bool hasMshr(Addr line) { return _mshrs.find(line) != nullptr; }

    /** Transaction id of the outstanding MSHR (0 if none). */
    std::uint64_t
    mshrTxnId(Addr line)
    {
        Mshr *m = _mshrs.find(line);
        return m ? m->txnId : 0;
    }

    /** L2 state probe (checker / ProducerController). */
    LineState l2State(Addr line, Version &version) const;

    /** Number of outstanding transactions (drain detection). */
    std::size_t outstanding() { return _mshrs.size(); }

    /** @name Policy support surface (src/protocol/policy.hh). */
    /// @{
    Hub &hub() { return _hub; }

    /** Drop a valid local copy (L1 range + L2), as the adaptive
     *  hybrid's consumer self-invalidation does. */
    void dropLine(Addr line);
    /// @}

    /** @name Barrier spin elision (src/cpu/barrier.hh).
     *
     * A load that hits in the L1 reads only the L1 tags and the L2
     * entry, and every call that can change either (each public
     * mutator, and retries) first runs the parked spinner's wake
     * hook. So between a park and that call, every poll of the
     * spinner's flag is an L1 hit reading the same version.
     */
    /// @{
    /** Would a load of @p addr now hit in the L1 and read
     *  @p version, with parking allowed (the conformance observer,
     *  which records every access, is off)? No LRU side effects. */
    bool spinCanPark(Addr addr, Version version) const;

    /** Run @p wake once, before the next state change. */
    void
    parkSpinner(std::function<void()> wake)
    {
        _spinWake = std::move(wake);
    }

    /** Account @p polls elided L1-hit loads of @p addr: the counters
     *  and checker work they would have done, plus one L1 and one L2
     *  touch (repeated touches of one line keep the same LRU order). */
    void creditSpinPolls(Addr addr, std::uint64_t polls);
    /// @}

  private:
    /** Run and clear a parked spinner's wake hook, if any. */
    void
    wakeSpinner()
    {
        if (_spinWake) {
            const std::function<void()> wake = std::move(_spinWake);
            _spinWake = nullptr;
            wake();
        }
    }

    void missPath(bool is_write, Addr addr, Addr line,
                  AccessCallback done, unsigned conflict_retries);
    /** Pick the target (producer table / consumer hint / home) and
     *  send the MSHR's request. */
    void sendRequest(Mshr &m);
    void retry(Addr line);
    void maybeComplete(Mshr &m);
    void complete(Mshr &m);

    /** Fill @p line into the L2, evicting (writeback / victim-cache)
     *  as needed. Returns the entry. */
    L2Entry *l2Fill(Addr line, LineState state, Version version);
    void evictVictim(Addr victim_line, L2Entry &victim);

    /** Perform a store on a writable resident line. */
    void performStore(Addr line, L2Entry &entry);

    Hub &_hub;
    const ProtocolConfig &_cfg;
    L1Cache _l1;
    CacheArray<L2Entry> _l2;
    MshrTable _mshrs;
    Rng _rng;

    /** Superseded epochs of recently invalidated lines: stale
     *  in-flight updates are dropped against them. */
    TombstoneBuffer _tombstones;

    std::uint64_t _nextTxnId = 0;

    /** Wake hook of the parked spinner (empty when none). */
    std::function<void()> _spinWake;
};

} // namespace pcsim

#endif // PCSIM_PROTOCOL_CACHE_CONTROLLER_HH
