/**
 * @file
 * Remote Access Cache (Section 2.1).
 *
 * The RAC lives in the node's hub and serves three roles:
 *  1. victim cache for remote data evicted from the processor caches,
 *  2. the landing zone for speculative UPDATE pushes (processors do
 *     not allow pushes into their caches),
 *  3. surrogate "main memory" for lines delegated to this node: the
 *     corresponding entry is pinned while the delegation persists.
 *
 * Entries hold read-only (SHARED) copies; a pinned entry's data may be
 * dirty with respect to the real home's memory and is shipped back on
 * undelegation.
 */

#ifndef PCSIM_CORE_RAC_HH
#define PCSIM_CORE_RAC_HH

#include <cstdint>
#include <functional>

#include "src/cache/cache_array.hh"
#include "src/sim/random.hh"
#include "src/sim/types.hh"

namespace pcsim
{

/** RAC geometry. */
struct RacConfig
{
    std::size_t sizeBytes = 32 * 1024; ///< 32 KB small / 1 MB large
    std::size_t ways = 4;
    std::uint32_t lineBytes = 128;
    Tick accessLatency = 8; ///< hub-local lookup cost
};

/** One RAC line. */
struct RacEntry
{
    Version version = 0;
    bool pinned = false;     ///< surrogate memory for a delegated line
    bool dirtyHome = false;  ///< differs from the real home's memory
    bool fromUpdate = false; ///< arrived via a speculative push
};

/** The remote access cache. */
class Rac
{
  public:
    Rac(const RacConfig &cfg, Rng rng)
        : _cfg(cfg),
          _array("rac", cfg.sizeBytes / (cfg.ways * cfg.lineBytes),
                 cfg.ways, cfg.lineBytes, ReplPolicy::LRU, rng)
    {
    }

    Tick accessLatency() const { return _cfg.accessLatency; }

    /** Look up @p line; nullptr on miss. */
    RacEntry *find(Addr line) { return _array.find(line); }
    const RacEntry *find(Addr line) const { return _array.find(line); }

    /**
     * Insert an unpinned SHARED copy (victim-cache fill or pushed
     * update). Pinned entries are never displaced; returns false if
     * the set is wholly pinned (the push is then simply dropped --
     * updates are hints).
     */
    bool
    insert(Addr line, Version version)
    {
        RacEntry *e = _array.allocate(
            line,
            [](Addr, const RacEntry &v) { return !v.pinned; });
        if (!e)
            return false;
        e->version = version;
        e->pinned = false;
        e->dirtyHome = false;
        return true;
    }

    /**
     * Insert and pin the surrogate-memory copy for a freshly delegated
     * line. May displace unpinned entries. If the set is full of
     * pinned entries, @p evict_pinned is invoked with the set's first
     * pinned way so the caller can undelegate it first (undelegation
     * reason 2); the insert is then retried.
     *
     * @return the entry, or nullptr if no room could be made.
     */
    RacEntry *
    insertPinned(Addr line, Version version,
                 const std::function<void(Addr)> &evict_pinned)
    {
        for (int attempt = 0; attempt < 2; ++attempt) {
            RacEntry *e = _array.allocate(
                line,
                [](Addr, const RacEntry &v) { return !v.pinned; });
            if (e) {
                e->version = version;
                e->pinned = true;
                e->dirtyHome = true;
                return e;
            }
            if (attempt == 0 && evict_pinned) {
                Addr victim = pinnedVictimInSetOf(line);
                if (victim == invalidAddr)
                    return nullptr;
                // The callback must undelegate, which unpins/removes
                // the victim entry.
                evict_pinned(victim);
            }
        }
        return nullptr;
    }

    /** Refresh the data of a pinned (delegated) entry. */
    void
    updatePinned(Addr line, Version version)
    {
        RacEntry *e = _array.find(line);
        if (e && e->pinned)
            e->version = version;
    }

    /** Unpin on undelegation. @p keep_data retains a plain S copy. */
    void
    unpin(Addr line, bool keep_data)
    {
        RacEntry *e = _array.find(line, false);
        if (!e)
            return;
        if (keep_data) {
            e->pinned = false;
            e->dirtyHome = false;
        } else {
            _array.invalidate(line);
        }
    }

    /** Coherence invalidation (never removes pinned entries without
     *  explicit unpin; the protocol unpins before any remote
     *  invalidation can target a delegated line). */
    bool invalidate(Addr line) { return _array.invalidate(line); }

    std::size_t occupancy() const { return _array.occupancy(); }
    std::size_t capacityBytes() const { return _array.capacityBytes(); }

    void
    forEach(const std::function<void(Addr, const RacEntry &)> &fn) const
    {
        _array.forEach(fn);
    }

  private:
    /** First pinned way, in way order, of the set @p line maps to
     *  (invalidAddr if none). */
    Addr
    pinnedVictimInSetOf(Addr line)
    {
        return _array.firstInSet(
            line, [](Addr, const RacEntry &e) { return e.pinned; });
    }

    RacConfig _cfg;
    CacheArray<RacEntry> _array;
};

} // namespace pcsim

#endif // PCSIM_CORE_RAC_HH
