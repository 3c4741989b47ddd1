/** @file Flat address-keyed hash map tests. */

#include <gtest/gtest.h>

#include <map>
#include <unordered_map>

#include "src/sim/addr_map.hh"
#include "src/sim/random.hh"

using namespace pcsim;

TEST(AddrMap, InsertFindErase)
{
    AddrMap<int> m;
    EXPECT_EQ(m.find(0x80), nullptr);
    EXPECT_FALSE(m.erase(0x80));
    m[0x80] = 7;
    m[0] = 3; // key 0 is an ordinary key
    ASSERT_NE(m.find(0x80), nullptr);
    EXPECT_EQ(*m.find(0x80), 7);
    EXPECT_EQ(*m.find(0), 3);
    EXPECT_EQ(m[0x100], 0); // inserted value-initialized
    EXPECT_EQ(m.size(), 3u);
    EXPECT_TRUE(m.erase(0x80));
    EXPECT_EQ(m.find(0x80), nullptr);
    EXPECT_EQ(m.size(), 2u);
}

// Seeded differential test against std::unordered_map: inserts,
// lookups and erases over dense runs of lines, scattered keys, page
// numbers and odd keys, through several growths; every answer and the
// visited entry set must match.
TEST(AddrMap, MatchesUnorderedMapReference)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        SCOPED_TRACE(seed);
        AddrMap<std::uint64_t> m;
        std::unordered_map<Addr, std::uint64_t> ref;
        Rng ops(seed);
        for (int i = 0; i < 30000; ++i) {
            const std::uint64_t k = ops.below(4000);
            Addr key = 0;
            switch (ops.below(4)) {
              case 0: key = k * 128; break;          // dense lines
              case 1: key = (k << 24) + 4096; break; // scattered
              case 2: key = k; break;                // page numbers
              default: key = k * 8 + 1; break;       // odd keys
            }
            const std::uint64_t op = ops.below(10);
            if (op < 5) {
                const std::uint64_t v = ops.below(1000);
                m[key] = v;
                ref[key] = v;
            } else if (op < 8) {
                ASSERT_EQ(m.erase(key), ref.erase(key) == 1) << i;
            }
            const std::uint64_t *got = m.find(key);
            auto it = ref.find(key);
            ASSERT_EQ(got != nullptr, it != ref.end()) << i;
            if (got) {
                ASSERT_EQ(*got, it->second) << i;
            }
            ASSERT_EQ(m.size(), ref.size()) << i;
            if (i % 2500 == 0) {
                std::map<Addr, std::uint64_t> seen;
                m.forEach([&](Addr k2, std::uint64_t v) { seen[k2] = v; });
                ASSERT_EQ(seen,
                          (std::map<Addr, std::uint64_t>(ref.begin(),
                                                         ref.end())))
                    << i;
            }
        }
    }
}
