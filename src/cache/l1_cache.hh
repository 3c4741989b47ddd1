/**
 * @file
 * L1 data cache model.
 *
 * The L1D (Table 1: 2-way, 32 KB, 32 B lines) is private to the CPU,
 * write-through into the L2 and inclusive in it: when an L2 line
 * leaves the node, the covered L1 lines are back-invalidated. Since it
 * is write-through, the L1 never holds data the L2 lacks, so coherence
 * is handled entirely at the L2 / hub level.
 */

#ifndef PCSIM_CACHE_L1_CACHE_HH
#define PCSIM_CACHE_L1_CACHE_HH

#include <cstdint>

#include "src/cache/cache_array.hh"
#include "src/sim/random.hh"
#include "src/sim/types.hh"

namespace pcsim
{

/** Geometry and timing of an L1 cache. */
struct L1Config
{
    std::size_t sizeBytes = 32 * 1024;
    std::size_t ways = 2;
    std::uint32_t lineBytes = 32;
    Tick hitLatency = 2;
};

/** Simple presence-tracking L1 (timing filter in front of the L2). */
class L1Cache
{
  public:
    struct Entry
    {
        // Write-through: no dirty bit needed.
    };

    L1Cache(const L1Config &cfg, Rng rng)
        : _cfg(cfg),
          _array("l1d", cfg.sizeBytes / (cfg.ways * cfg.lineBytes),
                 cfg.ways, cfg.lineBytes, ReplPolicy::LRU, rng)
    {
    }

    Tick hitLatency() const { return _cfg.hitLatency; }
    std::uint32_t lineBytes() const { return _cfg.lineBytes; }

    /** True if @p a is present (and touch it). */
    bool lookup(Addr a) { return _array.find(a) != nullptr; }

    /** True if @p a is present (no recency update). */
    bool contains(Addr a) const { return _array.find(a) != nullptr; }

    /** Fill the L1 line containing @p a (evicting silently). */
    void fill(Addr a) { _array.allocate(a); }

    /**
     * Back-invalidate every L1 line covered by the L2 line
     * [@p l2_line, @p l2_line + @p l2_line_bytes).
     */
    void
    invalidateRange(Addr l2_line, std::uint32_t l2_line_bytes)
    {
        _array.invalidateRange(l2_line, l2_line_bytes);
    }

  private:
    L1Config _cfg;
    CacheArray<Entry> _array;
};

} // namespace pcsim

#endif // PCSIM_CACHE_L1_CACHE_HH
