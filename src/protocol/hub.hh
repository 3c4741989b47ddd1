/**
 * @file
 * The node "hub" (Figure 2): crossbar between the processor, local
 * DRAM/directory, RAC, delegate cache and the network interface.
 *
 * The Hub owns the three protocol engines of a node:
 *  - CacheController: the processor-side coherence agent (L1/L2,
 *    MSHRs, NACK retries, RAC lookups, intervention handling),
 *  - DirController: the home-side directory engine (base
 *    write-invalidate protocol, delegation grant and forwarding),
 *  - ProducerController: the delegated-home engine (producer table,
 *    delayed interventions, speculative updates, undelegation).
 *
 * It dispatches incoming network messages to the right engine and
 * implements the checker's view of the node.
 */

#ifndef PCSIM_PROTOCOL_HUB_HH
#define PCSIM_PROTOCOL_HUB_HH

#include <algorithm>
#include <array>
#include <memory>

#include "src/core/delegate_cache.hh"
#include "src/core/rac.hh"
#include "src/mem/memory_map.hh"
#include "src/net/network.hh"
#include "src/protocol/cache_controller.hh"
#include "src/protocol/checker.hh"
#include "src/protocol/config.hh"
#include "src/protocol/dir_controller.hh"
#include "src/protocol/node_stats.hh"
#include "src/protocol/producer_controller.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/stats.hh"

namespace pcsim
{

namespace verify
{
class MessageTrace;
class TransitionObserver;
} // namespace verify

class CoherencePolicy;

/**
 * Sliding-window NACK-rate tracker. The naive boxcar counter (reset
 * whenever `tick / window` changes) undercounts a storm that straddles
 * an aligned window boundary by up to 2x: the two halves land in
 * different boxcars. Instead keep a ring of `numBuckets` sub-window
 * buckets; `note()` expires every bucket older than `window` ticks and
 * returns the count over the trailing window, so a burst is measured
 * at full strength regardless of its alignment.
 */
class NackStormWindow
{
  public:
    static constexpr Tick window = 8192;
    static constexpr Tick numBuckets = 8; ///< sub-bucket width 1024

    /** Record one NACK at @p now; returns the trailing-window count.
     *  @p now must be monotone non-decreasing across calls. */
    std::uint64_t
    note(Tick now)
    {
        const Tick bucket = now / (window / numBuckets);
        if (bucket != _curBucket) {
            const Tick advance =
                std::min<Tick>(bucket - _curBucket, numBuckets);
            for (Tick i = 1; i <= advance; ++i) {
                auto &slot = _ring[(_curBucket + i) % numBuckets];
                _count -= slot;
                slot = 0;
            }
            _curBucket = bucket;
        }
        ++_ring[bucket % numBuckets];
        ++_count;
        return _count;
    }

  private:
    std::array<std::uint64_t, numBuckets> _ring{};
    std::uint64_t _count = 0;
    Tick _curBucket = 0;
};

/** One node's hub. */
class Hub : public SimObject,
            public MessageHandler,
            public CheckerNodeView
{
  public:
    Hub(EventQueue &eq, Network &net, MemoryMap &mem_map,
        CoherenceChecker &checker, const ProtocolConfig &cfg, NodeId id,
        Rng rng);
    ~Hub() override;

    NodeId id() const { return _id; }
    const ProtocolConfig &cfg() const { return _cfg; }
    Network &network() { return _net; }
    MemoryMap &memMap() { return _memMap; }
    CoherenceChecker &checker() { return _checker; }
    NodeStats &stats() { return _stats; }
    const NodeStats &stats() const { return _stats; }

    CacheController &cacheCtrl() { return *_cacheCtrl; }
    DirController &dirCtrl() { return *_dirCtrl; }
    ProducerController &prodCtrl() { return *_prodCtrl; }

    /** The coherence policy this node runs (resolved once from
     *  ProtocolConfig::kind; src/protocol/policy.hh). */
    const CoherencePolicy &policy() const { return *_policy; }

    /** Optional structures (null when the config disables them). */
    Rac *rac() { return _rac.get(); }
    DelegateCache *delegateCache() { return _delegate.get(); }

    /** Table-3 instrumentation: consumers invalidated per write to a
     *  producer-consumer line. Owned by the System; the barrier flag
     *  region is excluded so the histogram reflects application data
     *  like the paper's Table 3. */
    void
    setConsumerHist(Histogram *h, Addr exclude_base, Addr exclude_size)
    {
        _consumerHist = h;
        _histExcludeBase = exclude_base;
        _histExcludeSize = exclude_size;
    }
    void
    sampleConsumers(Addr line, unsigned n)
    {
        if (!_consumerHist || n == 0)
            return;
        if (line >= _histExcludeBase &&
            line < _histExcludeBase + _histExcludeSize)
            return;
        _consumerHist->sample(n);
    }

    /** CPU entry point: perform one load or store. The callback
     *  receives the resulting line version. */
    void cpuAccess(bool is_write, Addr addr, AccessCallback done);

    /** Convenience sender: stamps src with this node's id. */
    void send(const Message &msg);

    /** Deferred sender: inject a copy of @p msg (src stamped with this
     *  node's id) at absolute tick @p when. The copy lives in the
     *  network's message pool, so the timer closure captures just two
     *  pointers and schedules without heap allocation. */
    void sendAt(Tick when, const Message &msg);

    /** Deferred sender, @p delta ticks from now. */
    void
    sendIn(Tick delta, const Message &msg)
    {
        sendAt(curTick() + delta, msg);
    }

    /** NACK-storm telemetry: every NACK sent by this node's home-side
     *  engines funnels through here so NodeStats::nackStormPeak tracks
     *  the worst burst within any sliding nackStormWindow-tick span
     *  (see NackStormWindow below). */
    static constexpr Tick nackStormWindow = NackStormWindow::window;
    void
    noteNackSent()
    {
        ++_stats.nacksSent;
        const std::uint64_t cur = _nackStorm.note(curTick());
        if (cur > _stats.nackStormPeak)
            _stats.nackStormPeak = cur;
    }

    /** Message history for @p line, or "" when tracing is off. Used by
     *  retry-exhaustion panics so the report carries the line's recent
     *  protocol activity. */
    std::string lineTrace(Addr line) const;

    /** Per-run conformance observer (null = hook disabled) and
     *  message trace (null = no history kept). Owned by the System. */
    void
    setConformance(verify::TransitionObserver *obs,
                   verify::MessageTrace *trace)
    {
        _observer = obs;
        _trace = trace;
    }
    verify::TransitionObserver *observer() { return _observer; }

    /** Line-align an address at coherence granularity (lineBytes is
     *  a power of two: ProtocolConfig::validate, and the L2 array
     *  refuses any other line size). */
    Addr lineOf(Addr a) const { return a & ~Addr(_cfg.lineBytes - 1); }

    /** Home node of @p line (first-touch assigns to this node). */
    NodeId homeOf(Addr line) { return _memMap.homeOf(line, _id); }

    // MessageHandler
    void handleMessage(const Message &msg) override;

    // CheckerNodeView
    LineState l2State(Addr line, Version &version) const override;
    bool racCopy(Addr line, Version &version,
                 bool &pinned) const override;
    const ProducerEntry *producerEntry(Addr line) const override;
    DirEntry homeDirEntry(Addr line) const override;

  private:
    NodeId _id;
    const ProtocolConfig &_cfg;
    Network &_net;
    MemoryMap &_memMap;
    CoherenceChecker &_checker;
    NodeStats _stats;

    const CoherencePolicy *_policy;

    verify::TransitionObserver *_observer = nullptr;
    verify::MessageTrace *_trace = nullptr;

    NackStormWindow _nackStorm;

    Histogram *_consumerHist = nullptr;
    Addr _histExcludeBase = 0;
    Addr _histExcludeSize = 0;
    std::unique_ptr<Rac> _rac;
    std::unique_ptr<DelegateCache> _delegate;
    std::unique_ptr<CacheController> _cacheCtrl;
    std::unique_ptr<DirController> _dirCtrl;
    std::unique_ptr<ProducerController> _prodCtrl;
};

} // namespace pcsim

#endif // PCSIM_PROTOCOL_HUB_HH
