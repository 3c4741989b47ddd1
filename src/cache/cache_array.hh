/**
 * @file
 * Generic set-associative cache array.
 *
 * Stores user-defined per-line payloads and manages tags, validity and
 * replacement (LRU or random). The number of sets need not be a power
 * of two, which lets us model the "equal silicon area" 1.04 MB L2 of
 * Figure 8 exactly.
 *
 * Every coherence message probes one or more of these arrays, so the
 * probe is kept short (DESIGN.md "Hot-path lookup structures"): the
 * line size is a power of two, so aligning and indexing are a mask
 * and a shift, and a power-of-two set count turns the set index into
 * a mask too (other counts keep an exact modulo). Each set is one
 * record, tags first: ways tags (invalidAddr marks an invalid way),
 * then ways recency stamps, then the payloads. A probe scans ways x 8
 * bytes; a hit adds the stamp beside them and its own payload.
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
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
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
    /** Sets committed together on first allocation. Small groups
     *  keep first-touch zeroing cheap; the group table adds one
     *  pointer per group. A power of two, so the group of a set is a
     *  shift away. */
    static constexpr std::size_t setsPerGroup = 8;

    CacheArray(std::string name, std::size_t num_sets, std::size_t ways,
               std::uint32_t line_bytes, ReplPolicy policy, Rng rng)
        : _name(std::move(name)),
          _numSets(num_sets),
          _ways(ways),
          _lineBytes(line_bytes),
          _policy(policy),
          _rng(rng),
          _groups((num_sets + setsPerGroup - 1) / setsPerGroup, nullptr)
    {
        // A line size of at least 2 keeps invalidAddr (all ones) off
        // every aligned tag, so it can mark an invalid way.
        if (num_sets == 0 || ways == 0 || line_bytes < 2 ||
            (line_bytes & (line_bytes - 1)) != 0)
            fatal("%s: bad cache geometry", _name.c_str());
        _lineShift = static_cast<unsigned>(__builtin_ctz(line_bytes));
        _pow2Sets = (num_sets & (num_sets - 1)) == 0;
        // Set record: tags, stamps, payloads; padded to whole cache
        // lines so a 4-way set's tags and stamps share one.
        _dataOffset = roundUp(2 * ways * sizeof(Addr), alignof(EntryT));
        _setBytes = roundUp(_dataOffset + ways * sizeof(EntryT), blockAlign);
    }

    CacheArray(const CacheArray &) = delete;
    CacheArray &operator=(const CacheArray &) = delete;

    ~CacheArray()
    {
        forEachSet([&](std::byte *set) {
            std::destroy_n(dataOf(set), _ways);
        });
        for (std::byte *group : _groups)
            ::operator delete(group, std::align_val_t{blockAlign});
    }

    std::uint32_t lineBytes() const { return _lineBytes; }
    std::size_t numSets() const { return _numSets; }
    std::size_t ways() const { return _ways; }
    std::size_t capacityBytes() const
    {
        return _numSets * _ways * _lineBytes;
    }

    /** Align a byte address down to its line. */
    Addr lineAlign(Addr a) const { return a & ~Addr(_lineBytes - 1); }

    /**
     * Look up @p a. Returns the payload or nullptr.
     * @param touch update recency on hit.
     */
    EntryT *
    find(Addr a, bool touch = true)
    {
        const Addr line = lineAlign(a);
        std::byte *set = setOf(line);
        if (!set)
            return nullptr;
        Addr *tags = tagsOf(set);
        for (std::size_t w = 0; w < _ways; ++w) {
            if (tags[w] == line) {
                if (touch)
                    usesOf(set)[w] = ++_useClock;
                return &dataOf(set)[w];
            }
        }
        return nullptr;
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
     * @param can_evict    predicate (addr, payload) deciding whether a
     *                     valid slot may be displaced (e.g. skip
     *                     pinned RAC entries); nullptr allows any.
     * @param on_evict     called with (addr, payload) of the victim
     *                     before reuse; nullptr for none.
     * @return payload pointer, or nullptr if the set is full and no
     *         slot is evictable.
     *
     * If @p a is already present its existing slot is returned.
     */
    template <typename CanEvict = std::nullptr_t,
              typename OnEvict = std::nullptr_t>
    EntryT *
    allocate(Addr a, CanEvict &&can_evict = nullptr,
             OnEvict &&on_evict = nullptr)
    {
        const Addr line = lineAlign(a);
        const std::size_t idx = setIndex(line);
        std::byte *set = commitGroup(idx / setsPerGroup) +
                         (idx % setsPerGroup) * _setBytes;
        Addr *tags = tagsOf(set);
        std::uint64_t *uses = usesOf(set);
        EntryT *data = dataOf(set);

        std::size_t free_way = _ways;
        for (std::size_t w = 0; w < _ways; ++w) {
            if (tags[w] == line) {
                uses[w] = ++_useClock;
                return &data[w];
            }
            if (tags[w] == invalidAddr && free_way == _ways)
                free_way = w;
        }

        std::size_t w = free_way;
        if (w == _ways) {
            w = pickVictim(tags, uses, data, can_evict);
            if (w == _ways)
                return nullptr;
            if constexpr (!isNull<OnEvict>)
                on_evict(Addr{tags[w]}, data[w]);
        }
        tags[w] = line;
        uses[w] = ++_useClock;
        data[w] = EntryT{};
        return &data[w];
    }

    /** Drop @p a if present. Returns true if it was present. The
     *  payload is left as is: no probe reads an invalid way's payload,
     *  and allocate() resets it on reuse. */
    bool
    invalidate(Addr a)
    {
        const Addr line = lineAlign(a);
        std::byte *set = setOf(line);
        return set && dropTag(tagsOf(set), line);
    }

    /**
     * Invalidate every line that overlaps [@p base, @p base + @p bytes).
     * @p base need not be line-aligned: a coherence line smaller than
     * this array's line still drops the line that contains it.
     * Consecutive lines map to consecutive sets, so the set index is
     * stepped rather than recomputed per line.
     */
    void
    invalidateRange(Addr base, Addr bytes)
    {
        if (bytes == 0)
            return;
        const Addr first = lineAlign(base);
        std::size_t idx = setIndex(first);
        for (Addr line = first; line < base + bytes; line += _lineBytes) {
            if (std::byte *group = _groups[idx / setsPerGroup])
                dropTag(tagsOf(group + (idx % setsPerGroup) * _setBytes),
                        line);
            if (++idx == _numSets)
                idx = 0;
        }
    }

    /**
     * First valid way, in way order, of the set @p a maps to whose
     * (addr, payload) satisfies @p pred; invalidAddr if none.
     */
    template <typename Pred>
    Addr
    firstInSet(Addr a, Pred &&pred)
    {
        std::byte *set = setOf(lineAlign(a));
        if (!set)
            return invalidAddr;
        const Addr *tags = tagsOf(set);
        for (std::size_t w = 0; w < _ways; ++w) {
            if (tags[w] != invalidAddr &&
                pred(tags[w], std::as_const(dataOf(set)[w])))
                return tags[w];
        }
        return invalidAddr;
    }

    /** Visit every valid line: fn(addr, payload). */
    void
    forEach(const std::function<void(Addr, EntryT &)> &fn)
    {
        forEachValid([&](Addr a, EntryT &e) { fn(a, e); });
    }

    void
    forEach(const std::function<void(Addr, const EntryT &)> &fn) const
    {
        forEachValid([&](Addr a, const EntryT &e) { fn(a, e); });
    }

    /** Number of valid lines in the set @p a maps to. */
    std::size_t
    setOccupancy(Addr a) const
    {
        std::byte *set = setOf(lineAlign(a));
        std::size_t n = 0;
        for (std::size_t w = 0; set && w < _ways; ++w)
            n += tagsOf(set)[w] != invalidAddr ? 1 : 0;
        return n;
    }

    /** Number of valid lines. */
    std::size_t
    occupancy() const
    {
        std::size_t n = 0;
        forEachValid([&](Addr, const EntryT &) { ++n; });
        return n;
    }

    /** Drop everything (committed groups stay committed). */
    void
    clear()
    {
        forEachSet([&](std::byte *set) {
            std::fill_n(tagsOf(set), _ways, invalidAddr);
        });
    }

    /** Groups of setsPerGroup sets whose storage has been committed. */
    std::size_t
    committedGroups() const
    {
        std::size_t n = 0;
        for (const std::byte *g : _groups)
            n += g ? 1 : 0;
        return n;
    }

  private:
    template <typename F>
    static constexpr bool isNull =
        std::is_same_v<std::decay_t<F>, std::nullptr_t>;

    /** Group blocks are aligned, and set records padded, to host
     *  cache lines. */
    static constexpr std::size_t blockAlign = 64;

    static constexpr std::size_t
    roundUp(std::size_t n, std::size_t to)
    {
        return (n + to - 1) / to * to;
    }

    static_assert(alignof(EntryT) <= blockAlign,
                  "CacheArray payload alignment exceeds a cache line");

    std::size_t
    setIndex(Addr line) const
    {
        const Addr n = line >> _lineShift;
        return static_cast<std::size_t>(_pow2Sets ? n & (_numSets - 1)
                                                  : n % _numSets);
    }

    /** Sets in group @p g (only the last group can be short). */
    std::size_t
    groupSets(std::size_t g) const
    {
        return std::min(setsPerGroup, _numSets - g * setsPerGroup);
    }

    /** @name Views into one set record. */
    /// @{
    static Addr *
    tagsOf(std::byte *set)
    {
        return reinterpret_cast<Addr *>(set);
    }
    std::uint64_t *usesOf(std::byte *set) const { return tagsOf(set) + _ways; }
    EntryT *
    dataOf(std::byte *set) const
    {
        return std::launder(reinterpret_cast<EntryT *>(set + _dataOffset));
    }
    /// @}

    /** Record of the set @p line maps to, or nullptr while its group
     *  is uncommitted (every way of it reads invalid). Const callers
     *  only read through the pointer. */
    std::byte *
    setOf(Addr line) const
    {
        const std::size_t idx = setIndex(line);
        std::byte *group = _groups[idx / setsPerGroup];
        return group ? group + (idx % setsPerGroup) * _setBytes : nullptr;
    }

    /** Mark @p line's way in a set invalid; false if absent. */
    bool
    dropTag(Addr *tags, Addr line) const
    {
        for (std::size_t w = 0; w < _ways; ++w) {
            if (tags[w] == line) {
                tags[w] = invalidAddr;
                return true;
            }
        }
        return false;
    }

    /** The block of group @p g, committing it first if needed. */
    std::byte *
    commitGroup(std::size_t g)
    {
        if (!_groups[g]) {
            auto *group = static_cast<std::byte *>(
                ::operator new(groupSets(g) * _setBytes,
                               std::align_val_t{blockAlign}));
            for (std::size_t s = 0; s < groupSets(g); ++s) {
                std::byte *set = group + s * _setBytes;
                std::fill_n(tagsOf(set), _ways, invalidAddr);
                std::fill_n(usesOf(set), _ways, std::uint64_t{0});
                std::uninitialized_value_construct_n(dataOf(set), _ways);
            }
            _groups[g] = group;
        }
        return _groups[g];
    }

    /** Visit every committed set record, in set order. */
    template <typename Fn>
    void
    forEachSet(Fn &&fn) const
    {
        for (std::size_t g = 0; g < _groups.size(); ++g) {
            for (std::size_t s = 0; _groups[g] && s < groupSets(g); ++s)
                fn(_groups[g] + s * _setBytes);
        }
    }

    /** Visit every valid way, in set and way order, as fn(addr, data). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        forEachSet([&](std::byte *set) {
            for (std::size_t w = 0; w < _ways; ++w) {
                if (tagsOf(set)[w] != invalidAddr)
                    fn(Addr{tagsOf(set)[w]}, dataOf(set)[w]);
            }
        });
    }

    /** Replacement victim among a full set's ways; _ways if none may
     *  be evicted. */
    template <typename CanEvict>
    std::size_t
    pickVictim(const Addr *tags, const std::uint64_t *uses, EntryT *data,
               CanEvict &can_evict)
    {
        auto evictable = [&](std::size_t w) {
            if constexpr (isNull<CanEvict>)
                return true;
            else
                return static_cast<bool>(
                    can_evict(Addr{tags[w]}, std::as_const(data[w])));
        };
        if (_policy == ReplPolicy::Random) {
            // Random: up to `ways` probes starting at a random way.
            std::size_t w = static_cast<std::size_t>(_rng.below(_ways));
            for (std::size_t i = 0; i < _ways; ++i) {
                if (evictable(w))
                    return w;
                if (++w == _ways)
                    w = 0;
            }
            return _ways;
        }
        // LRU.
        std::size_t best = _ways;
        for (std::size_t w = 0; w < _ways; ++w) {
            if (!evictable(w))
                continue;
            if (best == _ways || uses[w] < uses[best])
                best = w;
        }
        return best;
    }

    std::string _name;
    std::size_t _numSets;
    std::size_t _ways;
    std::uint32_t _lineBytes;
    unsigned _lineShift = 0;
    bool _pow2Sets = false;
    /** Byte offset of the payloads within, and size of, a set record. */
    std::size_t _dataOffset = 0;
    std::size_t _setBytes = 0;
    ReplPolicy _policy;
    Rng _rng;
    /** Per-group blocks of set records, null until the group's first
     *  allocation. */
    std::vector<std::byte *> _groups;
    std::uint64_t _useClock = 0;
};

} // namespace pcsim

#endif // PCSIM_CACHE_CACHE_ARRAY_HH
