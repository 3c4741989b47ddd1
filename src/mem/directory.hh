/**
 * @file
 * Home-node directory state: backing store and directory cache.
 *
 * The full directory lives in (simulated) DRAM: DirectoryStore keeps
 * one entry per ever-touched line, including the line's memory data
 * (abstracted to a Version, see DESIGN.md). The DirectoryCache holds
 * the most recently used entries (SGI Altix: 8k entries) and is the
 * only place the producer-consumer detector bits exist: they are
 * dropped on eviction (Section 2.2), so there is no memory overhead.
 */

#ifndef PCSIM_MEM_DIRECTORY_HH
#define PCSIM_MEM_DIRECTORY_HH

#include <cstdint>
#include <unordered_map>

#include "src/cache/cache_array.hh"
#include "src/core/pc_detector.hh"
#include "src/mem/sharer_set.hh"
#include "src/net/message.hh"
#include "src/sim/types.hh"

namespace pcsim
{

/** Global coherence state of a line at its home. */
enum class DirState : std::uint8_t
{
    Unowned,
    Shared,
    Excl,
    BusyRead, ///< intervention outstanding for a read
    BusyExcl, ///< intervention outstanding for a write
    Dele,     ///< directory duties delegated to a producer node
    BusyUpd,  ///< write-update episode open (UpdGrant issued, the
              ///< writer's UpdateWB closes it; policy.hh)
};

inline const char *
dirStateName(DirState s)
{
    switch (s) {
      case DirState::Unowned: return "Unowned";
      case DirState::Shared: return "Shared";
      case DirState::Excl: return "Excl";
      case DirState::BusyRead: return "BusyRead";
      case DirState::BusyExcl: return "BusyExcl";
      case DirState::Dele: return "Dele";
      case DirState::BusyUpd: return "BusyUpd";
    }
    return "?";
}

/** Protocol-visible directory entry contents. */
struct DirEntry
{
    DirState state = DirState::Unowned;
    SharerSet sharers;          ///< sharing vector of nodes with S copies
    NodeId owner = invalidNode; ///< owner (Excl) or delegatee (Dele)

    /** Pending-transaction bookkeeping while Busy*. */
    NodeId pendingReq = invalidNode;
    MsgType pendingType = MsgType::ReqShared;
    NodeId pendingOwner = invalidNode; ///< intervention target
    std::uint64_t pendingTxnId = 0;    ///< requester's transaction id
    /** The owner's writeback raced our intervention and already
     *  arrived; the episode completes when the IntervNack returns. */
    bool pendingWb = false;

    /** Memory ("DRAM") copy of the line: write-epoch + staleness. */
    Version memVersion = 0;

    bool busy() const
    {
        return state == DirState::BusyRead ||
               state == DirState::BusyExcl ||
               state == DirState::BusyUpd;
    }

    bool isSharer(NodeId n) const { return sharers.contains(n); }
    void addSharer(NodeId n) { sharers.add(n); }
    void removeSharer(NodeId n) { sharers.remove(n); }
    unsigned numSharers() const { return sharers.countSlots(); }
};

/** Directory cache entry: protocol state + the 8 detector bits. */
struct DirCacheEntry
{
    DirEntry dir;
    PcDetectorState detector;
};

/** Full backing directory (conceptually in local DRAM). */
class DirectoryStore
{
  public:
    /**
     * @param sharer_granularity_log2 coarse-vector granularity
     *        imprinted on every entry created here (0 = exact, one
     *        bit per node); copies of these entries carry it through
     *        the rest of the protocol stack.
     */
    explicit DirectoryStore(unsigned sharer_granularity_log2 = 0)
        : _granularityLog2(sharer_granularity_log2)
    {
    }

    /** Fetch (creating Unowned on first touch). */
    DirEntry &
    lookup(Addr line)
    {
        auto [it, inserted] = _entries.try_emplace(line);
        if (inserted && _granularityLog2)
            it->second.sharers.setGranularityLog2(_granularityLog2);
        return it->second;
    }

    const DirEntry *
    find(Addr line) const
    {
        auto it = _entries.find(line);
        return it == _entries.end() ? nullptr : &it->second;
    }

    void
    writeback(Addr line, const DirEntry &e)
    {
        _entries[line] = e;
    }

    std::size_t size() const { return _entries.size(); }

  private:
    unsigned _granularityLog2;
    std::unordered_map<Addr, DirEntry> _entries;
};

/** Directory cache geometry. */
struct DirectoryCacheConfig
{
    std::size_t entries = 8192; ///< SGI Altix-class directory cache
    std::size_t ways = 4;
};

/**
 * The directory cache: fast access to hot directory entries plus the
 * only storage for producer-consumer detector state.
 */
class DirectoryCache
{
  public:
    DirectoryCache(const DirectoryCacheConfig &cfg, DirectoryStore &store,
                   Rng rng)
        : _store(store),
          _array("dircache", cfg.entries / cfg.ways, cfg.ways,
                 /*line_bytes=*/128, ReplPolicy::LRU, rng)
    {
    }

    /**
     * Access the entry for @p line, filling from the store on a miss.
     * @param[out] was_miss set true when the backing store had to be
     *             consulted (caller charges DRAM latency).
     * @param ways_limit when nonzero, refuse to allocate into a set
     *        already holding this many lines (fault injection:
     *        temporarily shrunk associativity; hits are unaffected, so
     *        resident busy entries stay reachable).
     * @return the cached entry, or nullptr if the set is wedged with
     *         unevictable (busy / delegated) entries or capped by
     *         @p ways_limit.
     */
    DirCacheEntry *
    access(Addr line, bool &was_miss, unsigned ways_limit = 0)
    {
        was_miss = false;
        if (DirCacheEntry *hit = _array.find(line))
            return hit;

        was_miss = true;
        if (ways_limit && _array.setOccupancy(line) >= ways_limit)
            return nullptr;
        DirCacheEntry *e = _array.allocate(
            line,
            [](Addr, const DirCacheEntry &v) {
                // Entries mid-transaction hold pending state that must
                // not be lost; keep them resident.
                return !v.dir.busy();
            },
            [this](Addr victim, DirCacheEntry &v) {
                // Detector bits are dropped; protocol state persists.
                _store.writeback(victim, v.dir);
            });
        if (!e)
            return nullptr;
        e->dir = _store.lookup(line);
        e->detector.reset();
        return e;
    }

    /** Peek without fill (nullptr if not resident). */
    DirCacheEntry *peek(Addr line) { return _array.find(line, false); }

    std::size_t occupancy() const { return _array.occupancy(); }

    /** Flush everything back to the store (end of simulation). */
    void
    flush()
    {
        _array.forEach([this](Addr line, DirCacheEntry &e) {
            _store.writeback(line, e.dir);
        });
        _array.clear();
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    DirectoryStore &_store;
    CacheArray<DirCacheEntry> _array;
};

} // namespace pcsim

#endif // PCSIM_MEM_DIRECTORY_HH
