/**
 * @file
 * Generic set-associative cache array.
 *
 * Stores user-defined per-line payloads and manages tags, validity and
 * replacement (LRU or random). The number of sets need not be a power
 * of two, which lets us model the "equal silicon area" 1.04 MB L2 of
 * Figure 8 exactly.
 *
 * Storage is committed lazily, one group of setsPerGroup consecutive
 * sets at a time, on the first allocate() that lands in the group. A
 * 256-node machine touches a few dozen lines per node out of a 2 MB
 * L2 and an 8k-entry directory cache, so building it costs what the
 * run touches, not nodes x capacity (DESIGN.md "Lazy node storage").
 * Uncommitted groups read as all-invalid sets, so lookups, victims,
 * visit order and RNG draws are those of an eagerly built array.
 */

#ifndef PCSIM_CACHE_CACHE_ARRAY_HH
#define PCSIM_CACHE_CACHE_ARRAY_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/logging.hh"
#include "src/sim/random.hh"
#include "src/sim/types.hh"

namespace pcsim
{

/** Replacement policy selector. */
enum class ReplPolicy
{
    LRU,
    Random,
};

/**
 * Set-associative array of EntryT payloads indexed by line address.
 *
 * EntryT is any default-constructible struct; the array adds tag,
 * valid bit and recency. Addresses passed in are byte addresses and
 * are aligned internally to the line size.
 */
template <typename EntryT>
class CacheArray
{
  public:
    /** A slot: management bits plus the user payload. */
    struct Slot
    {
        bool valid = false;
        Addr addr = invalidAddr; ///< line-aligned address
        std::uint64_t lastUse = 0;
        EntryT data{};
    };

    /** Sets committed together on first allocation. Small groups
     *  keep first-touch zeroing cheap; the group table adds one
     *  pointer per group. */
    static constexpr std::size_t setsPerGroup = 8;

    CacheArray(std::string name, std::size_t num_sets, std::size_t ways,
               std::uint32_t line_bytes, ReplPolicy policy, Rng rng)
        : _name(std::move(name)),
          _numSets(num_sets),
          _ways(ways),
          _lineBytes(line_bytes),
          _policy(policy),
          _rng(rng),
          _groups((num_sets + setsPerGroup - 1) / setsPerGroup)
    {
        if (num_sets == 0 || ways == 0 || line_bytes == 0)
            fatal("%s: bad cache geometry", _name.c_str());
    }

    std::uint32_t lineBytes() const { return _lineBytes; }
    std::size_t numSets() const { return _numSets; }
    std::size_t ways() const { return _ways; }
    std::size_t capacityBytes() const
    {
        return _numSets * _ways * _lineBytes;
    }

    /** Align a byte address down to its line. */
    Addr lineAlign(Addr a) const { return a - (a % _lineBytes); }

    /**
     * Look up @p a. Returns the payload or nullptr.
     * @param touch update recency on hit.
     */
    EntryT *
    find(Addr a, bool touch = true)
    {
        Slot *slot = findSlot(a);
        if (!slot)
            return nullptr;
        if (touch)
            slot->lastUse = ++_useClock;
        return &slot->data;
    }

    const EntryT *
    find(Addr a) const
    {
        return const_cast<CacheArray *>(this)->find(a, false);
    }

    /**
     * Allocate a slot for @p a, evicting if necessary.
     *
     * @param a            byte address (aligned internally).
     * @param can_evict    predicate deciding whether a valid slot may
     *                     be displaced (e.g. skip pinned RAC entries);
     *                     pass nullptr to allow any.
     * @param on_evict     called with (addr, payload) of the victim
     *                     before reuse.
     * @return payload pointer, or nullptr if the set is full and no
     *         slot is evictable.
     *
     * If @p a is already present its existing slot is returned.
     */
    EntryT *
    allocate(Addr a,
             const std::function<bool(Addr, const EntryT &)> &can_evict
                 = nullptr,
             const std::function<void(Addr, EntryT &)> &on_evict
                 = nullptr)
    {
        const Addr line = lineAlign(a);
        if (Slot *hit = findSlot(line)) {
            hit->lastUse = ++_useClock;
            return &hit->data;
        }

        Slot *set = commitSet(line);
        Slot *victim = nullptr;
        // Prefer an invalid slot.
        for (std::size_t w = 0; w < _ways; ++w) {
            if (!set[w].valid) {
                victim = &set[w];
                break;
            }
        }
        if (!victim) {
            victim = pickVictim(set, can_evict);
            if (!victim)
                return nullptr;
            if (on_evict)
                on_evict(victim->addr, victim->data);
        }
        victim->valid = true;
        victim->addr = line;
        victim->lastUse = ++_useClock;
        victim->data = EntryT{};
        return &victim->data;
    }

    /** Drop @p a if present. Returns true if it was present. */
    bool
    invalidate(Addr a)
    {
        Slot *slot = findSlot(a);
        if (!slot)
            return false;
        slot->valid = false;
        slot->addr = invalidAddr;
        slot->data = EntryT{};
        return true;
    }

    /** Visit every valid line: fn(addr, payload). */
    void
    forEach(const std::function<void(Addr, EntryT &)> &fn)
    {
        forEachSlot([&](Slot &slot) {
            if (slot.valid)
                fn(slot.addr, slot.data);
        });
    }

    void
    forEach(const std::function<void(Addr, const EntryT &)> &fn) const
    {
        forEachSlot([&](const Slot &slot) {
            if (slot.valid)
                fn(slot.addr, slot.data);
        });
    }

    /** Number of valid lines in the set @p a maps to. */
    std::size_t
    setOccupancy(Addr a) const
    {
        const Slot *set = setBase(lineAlign(a));
        std::size_t n = 0;
        for (std::size_t w = 0; set && w < _ways; ++w)
            n += set[w].valid ? 1 : 0;
        return n;
    }

    /** Number of valid lines. */
    std::size_t
    occupancy() const
    {
        std::size_t n = 0;
        forEachSlot([&](const Slot &slot) { n += slot.valid ? 1 : 0; });
        return n;
    }

    /** Drop everything (committed groups stay committed). */
    void
    clear()
    {
        forEachSlot([](Slot &slot) {
            slot.valid = false;
            slot.addr = invalidAddr;
            slot.data = EntryT{};
        });
    }

    /** Groups of setsPerGroup sets whose storage has been committed. */
    std::size_t
    committedGroups() const
    {
        std::size_t n = 0;
        for (const auto &g : _groups)
            n += g ? 1 : 0;
        return n;
    }

  private:
    std::size_t
    setIndex(Addr line) const
    {
        return static_cast<std::size_t>((line / _lineBytes) % _numSets);
    }

    /** Sets in group @p g (only the last group can be short). */
    std::size_t
    groupSets(std::size_t g) const
    {
        return std::min(setsPerGroup, _numSets - g * setsPerGroup);
    }

    /** First slot of the set @p line maps to, or nullptr while its
     *  group is uncommitted (every slot of it reads invalid). Const
     *  callers only read through the pointer. */
    Slot *
    setBase(Addr line) const
    {
        const std::size_t set = setIndex(line);
        Slot *group = _groups[set / setsPerGroup].get();
        return group ? group + (set % setsPerGroup) * _ways : nullptr;
    }

    /** setBase(), committing the group first if needed. */
    Slot *
    commitSet(Addr line)
    {
        const std::size_t set = setIndex(line);
        const std::size_t g = set / setsPerGroup;
        if (!_groups[g])
            _groups[g] = std::make_unique<Slot[]>(groupSets(g) * _ways);
        return _groups[g].get() + (set % setsPerGroup) * _ways;
    }

    /** Visit every committed slot in flat slot order. */
    template <typename Fn>
    void
    forEachSlot(Fn &&fn) const
    {
        for (std::size_t g = 0; g < _groups.size(); ++g) {
            Slot *group = _groups[g].get();
            if (!group)
                continue;
            const std::size_t n = groupSets(g) * _ways;
            for (std::size_t i = 0; i < n; ++i)
                fn(group[i]);
        }
    }

    Slot *
    findSlot(Addr a)
    {
        const Addr line = lineAlign(a);
        Slot *set = setBase(line);
        if (!set)
            return nullptr;
        for (std::size_t w = 0; w < _ways; ++w) {
            if (set[w].valid && set[w].addr == line)
                return &set[w];
        }
        return nullptr;
    }

    Slot *
    pickVictim(Slot *set,
               const std::function<bool(Addr, const EntryT &)> &can_evict)
    {
        if (_policy == ReplPolicy::Random) {
            // Random: up to `ways` probes starting at a random way.
            const std::size_t start = _rng.below(_ways);
            for (std::size_t i = 0; i < _ways; ++i) {
                Slot *s = &set[(start + i) % _ways];
                if (!can_evict || can_evict(s->addr, s->data))
                    return s;
            }
            return nullptr;
        }
        // LRU.
        Slot *best = nullptr;
        for (std::size_t w = 0; w < _ways; ++w) {
            Slot *s = &set[w];
            if (can_evict && !can_evict(s->addr, s->data))
                continue;
            if (!best || s->lastUse < best->lastUse)
                best = s;
        }
        return best;
    }

    std::string _name;
    std::size_t _numSets;
    std::size_t _ways;
    std::uint32_t _lineBytes;
    ReplPolicy _policy;
    Rng _rng;
    /** Per-group storage, null until the group's first allocation. */
    std::vector<std::unique_ptr<Slot[]>> _groups;
    std::uint64_t _useClock = 0;
};

} // namespace pcsim

#endif // PCSIM_CACHE_CACHE_ARRAY_HH
