/**
 * @file
 * Flat hash map keyed by addresses (line addresses, page numbers).
 *
 * The controllers look several of these up per coherence message, so
 * the map is one array of (key, value) slots: open addressing with
 * linear probing over a power-of-two slot count kept at most half
 * full, and backward-shift deletion, so there are no tombstones and no
 * per-entry allocation. invalidAddr marks a free slot and cannot be a
 * key. Storage is committed on the first insert.
 *
 * Keys are Fibonacci-hashed (the top bits of key x 2^64/phi), which
 * spreads strided keys such as line addresses evenly; a hash that kept
 * neighbouring keys in neighbouring slots would merge runs of
 * consecutive lines into long probe chains.
 */

#ifndef PCSIM_SIM_ADDR_MAP_HH
#define PCSIM_SIM_ADDR_MAP_HH

#include <cstdint>
#include <vector>

#include "src/sim/types.hh"

namespace pcsim
{

template <typename V>
class AddrMap
{
  public:
    /** The value of @p key, or nullptr. */
    V *
    find(Addr key)
    {
        if (_slots.empty())
            return nullptr;
        for (std::size_t i = home(key);; i = next(i)) {
            if (_slots[i].key == key)
                return &_slots[i].value;
            if (_slots[i].key == invalidAddr)
                return nullptr;
        }
    }

    const V *
    find(Addr key) const
    {
        return const_cast<AddrMap *>(this)->find(key);
    }

    /** The value of @p key, inserted value-initialized if absent. */
    V &
    operator[](Addr key)
    {
        if (V *v = find(key))
            return *v;
        if (2 * (_size + 1) > _slots.size())
            rehash(_slots.empty() ? 16 : 2 * _slots.size());
        std::size_t i = home(key);
        while (_slots[i].key != invalidAddr)
            i = next(i);
        ++_size;
        _slots[i].key = key;
        return _slots[i].value;
    }

    /** Remove @p key; returns whether it was present. */
    bool
    erase(Addr key)
    {
        if (_slots.empty())
            return false;
        std::size_t gap = home(key);
        while (_slots[gap].key != key) {
            if (_slots[gap].key == invalidAddr)
                return false;
            gap = next(gap);
        }
        // Pull later entries of the probe run back over the gap,
        // except those whose home lies cyclically in (gap, j]: their
        // probes never pass the gap.
        for (std::size_t j = next(gap); _slots[j].key != invalidAddr;
             j = next(j)) {
            const std::size_t h = home(_slots[j].key);
            const bool stays =
                gap < j ? (gap < h && h <= j) : (gap < h || h <= j);
            if (!stays) {
                _slots[gap] = _slots[j];
                gap = j;
            }
        }
        _slots[gap] = Slot{};
        --_size;
        return true;
    }

    /** Visit every entry as fn(key, value), in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : _slots) {
            if (s.key != invalidAddr)
                fn(s.key, s.value);
        }
    }

    std::size_t size() const { return _size; }

  private:
    struct Slot
    {
        Addr key = invalidAddr;
        V value{};
    };

    std::size_t
    next(std::size_t i) const
    {
        return (i + 1) & (_slots.size() - 1);
    }

    std::size_t
    home(Addr key) const
    {
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                        _hashShift);
    }

    /** Rebuild with @p slots slots (a power of two). */
    void
    rehash(std::size_t slots)
    {
        std::vector<Slot> old(slots);
        old.swap(_slots);
        _hashShift = 64 - static_cast<unsigned>(__builtin_ctzll(slots));
        for (const Slot &s : old) {
            if (s.key == invalidAddr)
                continue;
            std::size_t i = home(s.key);
            while (_slots[i].key != invalidAddr)
                i = next(i);
            _slots[i] = s;
        }
    }

    std::vector<Slot> _slots;
    std::size_t _size = 0;
    /** 64 - log2(slot count): home() keeps the product's top bits. */
    unsigned _hashShift = 64;
};

} // namespace pcsim

#endif // PCSIM_SIM_ADDR_MAP_HH
