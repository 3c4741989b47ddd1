/** @file Set-associative cache array tests. */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/cache/cache_array.hh"

using namespace pcsim;

namespace
{

struct Payload
{
    int value = 0;
    bool pinned = false;
};

CacheArray<Payload>
makeArray(std::size_t sets = 4, std::size_t ways = 2,
          ReplPolicy pol = ReplPolicy::LRU)
{
    return CacheArray<Payload>("test", sets, ways, 128, pol, Rng(1));
}

} // namespace

TEST(CacheArray, MissThenHit)
{
    auto c = makeArray();
    EXPECT_EQ(c.find(0x1000), nullptr);
    Payload *p = c.allocate(0x1000);
    ASSERT_NE(p, nullptr);
    p->value = 7;
    EXPECT_EQ(c.find(0x1000)->value, 7);
}

TEST(CacheArray, LineAlignment)
{
    auto c = makeArray();
    c.allocate(0x1000)->value = 7;
    // Any address within the same 128 B line hits.
    EXPECT_NE(c.find(0x1000 + 127), nullptr);
    EXPECT_EQ(c.find(0x1000 + 128), nullptr);
}

TEST(CacheArray, AllocateExistingReturnsSameSlot)
{
    auto c = makeArray();
    Payload *a = c.allocate(0x1000);
    a->value = 3;
    Payload *b = c.allocate(0x1000);
    EXPECT_EQ(b->value, 3);
}

TEST(CacheArray, LruEvictsLeastRecentlyUsed)
{
    auto c = makeArray(/*sets=*/1, /*ways=*/2);
    c.allocate(c.lineAlign(0 * 128));
    c.allocate(c.lineAlign(1 * 128));
    c.find(0); // touch line 0; line 1 becomes LRU
    Addr evicted = invalidAddr;
    c.allocate(2 * 128, nullptr,
               [&](Addr a, Payload &) { evicted = a; });
    EXPECT_EQ(evicted, 128u);
    EXPECT_NE(c.find(0), nullptr);
    EXPECT_EQ(c.find(128), nullptr);
}

TEST(CacheArray, CanEvictPredicateProtectsPinned)
{
    auto c = makeArray(1, 2);
    c.allocate(0)->pinned = true;
    c.allocate(128)->pinned = true;
    Payload *p = c.allocate(
        256, [](Addr, const Payload &v) { return !v.pinned; });
    EXPECT_EQ(p, nullptr); // set wedged: nothing evictable
    c.find(0, false)->pinned = false;
    p = c.allocate(256,
                   [](Addr, const Payload &v) { return !v.pinned; });
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(c.find(0), nullptr); // the unpinned one was displaced
    EXPECT_NE(c.find(128), nullptr);
}

TEST(CacheArray, InvalidateRemoves)
{
    auto c = makeArray();
    c.allocate(0x1000);
    EXPECT_TRUE(c.invalidate(0x1000));
    EXPECT_EQ(c.find(0x1000), nullptr);
    EXPECT_FALSE(c.invalidate(0x1000));
}

TEST(CacheArray, OccupancyAndClear)
{
    auto c = makeArray(4, 2);
    for (int i = 0; i < 5; ++i)
        c.allocate(i * 128);
    EXPECT_EQ(c.occupancy(), 5u);
    c.clear();
    EXPECT_EQ(c.occupancy(), 0u);
}

TEST(CacheArray, ForEachVisitsValidLines)
{
    auto c = makeArray(4, 2);
    c.allocate(0)->value = 1;
    c.allocate(128)->value = 2;
    std::set<Addr> seen;
    c.forEach([&](Addr a, Payload &) { seen.insert(a); });
    EXPECT_EQ(seen, (std::set<Addr>{0, 128}));
}

TEST(CacheArray, NonPowerOfTwoSets)
{
    // Figure 8's 1.04 MB L2 uses a non-power-of-two set count.
    auto c = makeArray(13, 2);
    std::set<Addr> inserted;
    for (int i = 0; i < 26; ++i) {
        ASSERT_NE(c.allocate(i * 128), nullptr);
        inserted.insert(i * 128);
    }
    EXPECT_EQ(c.occupancy(), 26u);
    for (Addr a : inserted)
        EXPECT_NE(c.find(a), nullptr);
}

TEST(CacheArray, CapacityBytes)
{
    auto c = makeArray(8, 4);
    EXPECT_EQ(c.capacityBytes(), 8u * 4 * 128);
}

TEST(CacheArray, RandomPolicyEventuallyEvictsEverything)
{
    auto c = makeArray(1, 4, ReplPolicy::Random);
    for (int i = 0; i < 4; ++i)
        c.allocate(i * 128);
    std::set<Addr> victims;
    for (int i = 4; i < 200; ++i) {
        c.allocate(i * 128, nullptr,
                   [&](Addr a, Payload &) { victims.insert(a); });
    }
    // Random replacement should have displaced many distinct lines.
    EXPECT_GT(victims.size(), 50u);
}

// Property sweep: fills never exceed capacity and hits always return
// the last written payload, across geometries.
class CacheArrayGeometry
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CacheArrayGeometry, FillAndProbe)
{
    const auto [sets, ways] = GetParam();
    CacheArray<Payload> c("geom", sets, ways, 128, ReplPolicy::LRU,
                          Rng(3));
    const int lines = sets * ways * 3;
    for (int i = 0; i < lines; ++i) {
        Payload *p = c.allocate(i * 128);
        ASSERT_NE(p, nullptr);
        p->value = i;
        ASSERT_LE(c.occupancy(), static_cast<std::size_t>(sets * ways));
        Payload *hit = c.find(i * 128);
        ASSERT_NE(hit, nullptr);
        EXPECT_EQ(hit->value, i);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheArrayGeometry,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(1, 4),
                      std::make_tuple(8, 2), std::make_tuple(13, 4),
                      std::make_tuple(64, 4), std::make_tuple(256, 8)));

TEST(CacheArray, FindMissCommitsNothing)
{
    // 32 sets = four groups; nothing is committed until an allocate.
    auto c = makeArray(32, 2);
    const std::size_t group = CacheArray<Payload>::setsPerGroup;
    EXPECT_EQ(c.committedGroups(), 0u);
    EXPECT_EQ(c.find(0x1000), nullptr);
    EXPECT_EQ(std::as_const(c).find(0x1000), nullptr);
    EXPECT_EQ(c.setOccupancy(0x1000), 0u);
    EXPECT_FALSE(c.invalidate(0x1000));
    EXPECT_EQ(c.occupancy(), 0u);
    c.forEach([](Addr, Payload &) { ADD_FAILURE(); });
    c.clear();
    EXPECT_EQ(c.committedGroups(), 0u);

    c.allocate(0); // set 0, group 0
    EXPECT_EQ(c.committedGroups(), 1u);
    c.allocate((group - 1) * 128); // last set of group 0
    EXPECT_EQ(c.committedGroups(), 1u);
    c.allocate(group * 128); // first set of group 1
    EXPECT_EQ(c.committedGroups(), 2u);
    EXPECT_EQ(c.find(3 * group * 128), nullptr); // group 3 untouched
    EXPECT_EQ(c.committedGroups(), 2u);
    c.clear(); // committed storage stays committed
    EXPECT_EQ(c.committedGroups(), 2u);
    EXPECT_EQ(c.occupancy(), 0u);
}

namespace
{

/**
 * Eager reference model: one flat, fully built slot vector with the
 * same tag, recency and replacement rules as CacheArray.
 */
class EagerArray
{
  public:
    EagerArray(std::size_t sets, std::size_t ways, ReplPolicy pol,
               Rng rng)
        : _sets(sets), _ways(ways), _policy(pol), _rng(rng),
          _slots(sets * ways)
    {
    }

    Payload *
    find(Addr a, bool touch)
    {
        Slot *s = findSlot(a);
        if (!s)
            return nullptr;
        if (touch)
            s->lastUse = ++_clock;
        return &s->data;
    }

    /** Which valid ways allocate() may displace. */
    enum class Evict
    {
        Any,
        Unpinned,
        None,
    };

    Payload *
    allocate(Addr a, Evict mode, Addr &evicted)
    {
        const Addr line = a - a % kLine;
        if (Slot *hit = findSlot(line)) {
            hit->lastUse = ++_clock;
            return &hit->data;
        }
        Slot *set = setBase(line);
        Slot *victim = nullptr;
        for (std::size_t w = 0; w < _ways && !victim; ++w) {
            if (!set[w].valid)
                victim = &set[w];
        }
        if (!victim) {
            victim = pickVictim(set, mode);
            if (!victim)
                return nullptr;
            evicted = victim->addr;
        }
        *victim = Slot{true, line, ++_clock, Payload{}};
        return &victim->data;
    }

    bool
    invalidate(Addr a)
    {
        Slot *s = findSlot(a);
        if (!s)
            return false;
        *s = Slot{};
        return true;
    }

    void
    clear()
    {
        for (Slot &s : _slots)
            s = Slot{};
    }

    /** Drop every line that overlaps [base, base + bytes). */
    void
    invalidateRange(Addr base, Addr bytes)
    {
        for (Slot &s : _slots) {
            if (s.valid && s.addr < base + bytes && base < s.addr + kLine)
                s = Slot{};
        }
    }

    /** First pinned way of @p a's set, in way order. */
    Addr
    firstPinnedInSet(Addr a)
    {
        const Slot *set = setBase(a - a % kLine);
        for (std::size_t w = 0; w < _ways; ++w) {
            if (set[w].valid && set[w].data.pinned)
                return set[w].addr;
        }
        return invalidAddr;
    }

    std::vector<std::pair<Addr, int>>
    contents() const
    {
        std::vector<std::pair<Addr, int>> out;
        for (const Slot &s : _slots) {
            if (s.valid)
                out.emplace_back(s.addr, s.data.value);
        }
        return out;
    }

    std::size_t
    setOccupancy(Addr a)
    {
        const Slot *set = setBase(a - a % kLine);
        std::size_t n = 0;
        for (std::size_t w = 0; w < _ways; ++w)
            n += set[w].valid ? 1 : 0;
        return n;
    }

  private:
    static constexpr Addr kLine = 128;

    struct Slot
    {
        bool valid = false;
        Addr addr = invalidAddr;
        std::uint64_t lastUse = 0;
        Payload data{};
    };

    Slot *
    setBase(Addr line)
    {
        return &_slots[(line / kLine) % _sets * _ways];
    }

    Slot *
    findSlot(Addr a)
    {
        const Addr line = a - a % kLine;
        Slot *set = setBase(line);
        for (std::size_t w = 0; w < _ways; ++w) {
            if (set[w].valid && set[w].addr == line)
                return &set[w];
        }
        return nullptr;
    }

    Slot *
    pickVictim(Slot *set, Evict mode)
    {
        auto evictable = [&](const Slot &s) {
            return mode == Evict::Any ||
                   (mode == Evict::Unpinned && !s.data.pinned);
        };
        if (_policy == ReplPolicy::Random) {
            const std::size_t start = _rng.below(_ways);
            for (std::size_t i = 0; i < _ways; ++i) {
                Slot *s = &set[(start + i) % _ways];
                if (evictable(*s))
                    return s;
            }
            return nullptr;
        }
        Slot *best = nullptr;
        for (std::size_t w = 0; w < _ways; ++w) {
            Slot *s = &set[w];
            if (evictable(*s) && (!best || s->lastUse < best->lastUse))
                best = s;
        }
        return best;
    }

    std::size_t _sets;
    std::size_t _ways;
    ReplPolicy _policy;
    Rng _rng;
    std::vector<Slot> _slots;
    std::uint64_t _clock = 0;
};

std::vector<std::pair<Addr, int>>
contentsOf(const CacheArray<Payload> &c)
{
    std::vector<std::pair<Addr, int>> out;
    c.forEach(
        [&](Addr a, const Payload &p) { out.emplace_back(a, p.value); });
    return out;
}

} // namespace

// Differential test: the lazily committed, tag-first array must be
// indistinguishable from an eagerly built array of slots under seeded
// random allocate / find / invalidate / range-invalidate / in-set scan
// / clear streams -- same hits, same victims (LRU clock and Random
// draws, including when every way refuses eviction), same visit order
// and counts, and the same behaviour when cleared storage is reused.
class CacheArrayLazyVsEager
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, ReplPolicy>>
{
};

TEST_P(CacheArrayLazyVsEager, SameObservableBehaviour)
{
    using Evict = EagerArray::Evict;
    const auto [sets, ways, pol] = GetParam();
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(seed);
        CacheArray<Payload> lazy("lazy", sets, ways, 128, pol,
                                 Rng(seed));
        EagerArray eager(sets, ways, pol, Rng(seed));
        Rng ops(seed * 7919);
        // Twice the capacity in distinct lines forces evictions.
        const std::uint64_t lines = 2 * sets * ways;
        const int steps = static_cast<int>(6 * sets * ways) + 2000;
        int clears = 0;
        for (int i = 0; i < steps; ++i) {
            const Addr a = ops.below(lines) * 128 + ops.below(128);
            const std::uint64_t op = ops.below(100);
            if (op < 45) {
                const auto mode = static_cast<Evict>(ops.below(3));
                Addr ev_lazy = invalidAddr;
                Addr ev_eager = invalidAddr;
                auto on_evict = [&](Addr v, Payload &) { ev_lazy = v; };
                Payload *pl = nullptr;
                if (mode == Evict::Any) {
                    pl = lazy.allocate(a, nullptr, on_evict);
                } else if (mode == Evict::Unpinned) {
                    pl = lazy.allocate(
                        a, [](Addr, const Payload &v) { return !v.pinned; },
                        on_evict);
                } else {
                    pl = lazy.allocate(
                        a, [](Addr, const Payload &) { return false; },
                        on_evict);
                }
                Payload *pe = eager.allocate(a, mode, ev_eager);
                ASSERT_EQ(pl == nullptr, pe == nullptr) << "step " << i;
                ASSERT_EQ(ev_lazy, ev_eager) << "step " << i;
                if (pl) {
                    pl->value = pe->value = i;
                    pl->pinned = pe->pinned = ops.below(10) == 0;
                }
            } else if (op < 80) {
                const bool touch = ops.below(2) == 0;
                Payload *pl = lazy.find(a, touch);
                Payload *pe = eager.find(a, touch);
                ASSERT_EQ(pl == nullptr, pe == nullptr) << "step " << i;
                if (pl) {
                    ASSERT_EQ(pl->value, pe->value) << "step " << i;
                }
            } else if (op < 92) {
                ASSERT_EQ(lazy.invalidate(a), eager.invalidate(a))
                    << "step " << i;
            } else if (op < 94) {
                // An L2-line back-invalidate: four consecutive lines,
                // wrapping past the last set.
                const Addr base = a - a % 512;
                lazy.invalidateRange(base, 512);
                eager.invalidateRange(base, 512);
            } else if (op < 95) {
                // A range smaller than a line and not aligned to it,
                // or straddling a line boundary.
                const Addr base = a + 8 * ops.below(16);
                const Addr bytes = 8 + 8 * ops.below(20);
                lazy.invalidateRange(base, bytes);
                eager.invalidateRange(base, bytes);
            } else if (op < 99) {
                const Addr got = lazy.firstInSet(
                    a, [](Addr, const Payload &v) { return v.pinned; });
                ASSERT_EQ(got, eager.firstPinnedInSet(a)) << "step " << i;
            } else if (ops.below(4) == 0) {
                lazy.clear();
                eager.clear();
                ++clears;
            }
            ASSERT_EQ(lazy.setOccupancy(a), eager.setOccupancy(a))
                << "step " << i;
            if (i % 256 == 0 || i == steps - 1) {
                const auto expect = eager.contents();
                ASSERT_EQ(contentsOf(lazy), expect) << "step " << i;
                ASSERT_EQ(lazy.occupancy(), expect.size());
            }
        }
        EXPECT_GT(clears, 0); // cleared storage was reused
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheArrayLazyVsEager,
    ::testing::Combine(
        // Power of two (mask indexing); Figure 8's 1.04 MB L2 (2128
        // sets), an odd count and a count that is not a multiple of
        // the group size (exact modulo fallback).
        ::testing::Values(std::size_t(64), std::size_t(2128),
                          std::size_t(2129), std::size_t(13)),
        ::testing::Values(std::size_t(4)),
        ::testing::Values(ReplPolicy::LRU, ReplPolicy::Random)),
    [](const auto &info) {
        return "Sets" + std::to_string(std::get<0>(info.param)) +
               (std::get<2>(info.param) == ReplPolicy::LRU ? "Lru"
                                                           : "Random");
    });

TEST(CacheArray, ClearedStorageIsReused)
{
    auto c = makeArray(16, 2);
    for (int i = 0; i < 32; ++i)
        c.allocate(i * 128)->value = i;
    const std::size_t groups = c.committedGroups();
    c.clear();
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(c.find(i * 128), nullptr);
    // Refill: every way is free again, nothing is evicted, and the
    // payloads start from their defaults.
    for (int i = 32; i < 64; ++i) {
        Payload *p = c.allocate(
            i * 128, nullptr, [](Addr, Payload &) { ADD_FAILURE(); });
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p->value, 0);
        EXPECT_FALSE(p->pinned);
    }
    EXPECT_EQ(c.occupancy(), 32u);
    EXPECT_EQ(c.committedGroups(), groups);
}

TEST(CacheArray, InvalidateRangeStepsAcrossSets)
{
    // 32 B lines, 13 sets: a 128 B range covers four consecutive sets
    // and, from set 11, wraps to sets 0 and 1.
    CacheArray<Payload> c("l1", 13, 2, 32, ReplPolicy::LRU, Rng(1));
    const Addr base = (13 * 4 + 11) * 32; // line 63: set 11
    for (Addr a = base - 32; a < base + 160; a += 32)
        c.allocate(a);
    c.invalidateRange(base, 128);
    EXPECT_NE(c.find(base - 32), nullptr);
    for (Addr a = base; a < base + 128; a += 32)
        EXPECT_EQ(c.find(a), nullptr);
    EXPECT_NE(c.find(base + 128), nullptr);

    // A 16 B range inside one line, not aligned to it, drops that
    // line; one straddling a boundary drops both lines; an empty
    // range drops nothing.
    for (Addr a = base - 32; a < base + 160; a += 32)
        c.allocate(a);
    c.invalidateRange(base + 8, 16);
    EXPECT_EQ(c.find(base), nullptr);
    EXPECT_NE(c.find(base + 32), nullptr);
    c.invalidateRange(base + 56, 16);
    EXPECT_EQ(c.find(base + 32), nullptr);
    EXPECT_EQ(c.find(base + 64), nullptr);
    EXPECT_NE(c.find(base + 96), nullptr);
    c.invalidateRange(base + 100, 0);
    EXPECT_NE(c.find(base + 96), nullptr);
}

TEST(CacheArrayDeathTest, LineSizeMustBeAPowerOfTwo)
{
    EXPECT_EXIT(CacheArray<Payload>("bad", 4, 2, 96, ReplPolicy::LRU,
                                    Rng(1)),
                ::testing::ExitedWithCode(1), "bad cache geometry");
    EXPECT_EXIT(CacheArray<Payload>("bad", 4, 2, 1, ReplPolicy::LRU,
                                    Rng(1)),
                ::testing::ExitedWithCode(1), "bad cache geometry");
}
