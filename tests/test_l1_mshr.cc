/** @file L1 cache and MSHR table tests. */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <unordered_map>

#include "src/cache/l1_cache.hh"
#include "src/cache/mshr.hh"
#include "src/sim/random.hh"

using namespace pcsim;

TEST(L1Cache, FillAndLookup)
{
    L1Cache l1(L1Config{}, Rng(1));
    EXPECT_FALSE(l1.lookup(0x1000));
    l1.fill(0x1000);
    EXPECT_TRUE(l1.lookup(0x1000));
    // Same 32 B line hits; the next line does not.
    EXPECT_TRUE(l1.lookup(0x101f));
    EXPECT_FALSE(l1.lookup(0x1020));
}

TEST(L1Cache, BackInvalidateCoversL2Line)
{
    L1Cache l1(L1Config{}, Rng(1));
    // Fill all four 32 B L1 lines under one 128 B L2 line.
    for (Addr a = 0x2000; a < 0x2080; a += 32)
        l1.fill(a);
    l1.fill(0x2080); // belongs to the next L2 line
    l1.invalidateRange(0x2000, 128);
    for (Addr a = 0x2000; a < 0x2080; a += 32)
        EXPECT_FALSE(l1.lookup(a));
    EXPECT_TRUE(l1.lookup(0x2080));

    // A coherence line smaller than the L1 line (a 16 B line from a
    // replayed trace) still drops the 32 B L1 line that holds it.
    l1.fill(0x3000);
    l1.invalidateRange(0x3010, 16);
    EXPECT_FALSE(l1.lookup(0x3000));
}

TEST(L1Cache, ConfigGeometry)
{
    L1Config cfg;
    cfg.sizeBytes = 1024;
    cfg.ways = 2;
    cfg.lineBytes = 32;
    cfg.hitLatency = 3;
    L1Cache l1(cfg, Rng(2));
    EXPECT_EQ(l1.hitLatency(), 3u);
    EXPECT_EQ(l1.lineBytes(), 32u);
}

TEST(MshrTable, AllocateAndFind)
{
    MshrTable t(2);
    EXPECT_EQ(t.find(0x100), nullptr);
    Mshr *m = t.allocate(0x100);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->addr, 0x100u);
    EXPECT_EQ(t.find(0x100), m);
}

TEST(MshrTable, RejectsDuplicatesAndOverflow)
{
    MshrTable t(2);
    EXPECT_NE(t.allocate(0x100), nullptr);
    EXPECT_EQ(t.allocate(0x100), nullptr); // duplicate
    EXPECT_NE(t.allocate(0x200), nullptr);
    EXPECT_TRUE(t.full());
    EXPECT_EQ(t.allocate(0x300), nullptr); // full
    t.free(0x100);
    EXPECT_NE(t.allocate(0x300), nullptr);
}

TEST(Mshr, ReadReadyNeedsData)
{
    Mshr m;
    m.isWrite = false;
    EXPECT_FALSE(m.ready());
    m.haveData = true;
    EXPECT_TRUE(m.ready());
}

TEST(Mshr, WriteReadyNeedsAckCountAndAcks)
{
    Mshr m;
    m.isWrite = true;
    m.haveData = true;
    EXPECT_FALSE(m.ready()); // ack count unknown
    m.acksExpected = 2;
    EXPECT_FALSE(m.ready());
    m.acksReceived = 1;
    EXPECT_FALSE(m.ready());
    m.acksReceived = 2;
    EXPECT_TRUE(m.ready());
}

TEST(Mshr, AcksMayArriveBeforeCountKnown)
{
    Mshr m;
    m.isWrite = true;
    m.haveData = true;
    m.acksReceived = 3; // early acks
    EXPECT_FALSE(m.ready());
    m.acksExpected = 3;
    EXPECT_TRUE(m.ready());
}

TEST(Mshr, LostCopyUpgradeNeedsData)
{
    Mshr m;
    m.isWrite = true;
    m.acksExpected = 0;
    m.lostCopy = true;
    EXPECT_FALSE(m.ready()); // dataless grant no longer sufficient
    m.haveData = true;
    EXPECT_TRUE(m.ready());
}

TEST(MshrTable, ForEachVisitsAll)
{
    MshrTable t(4);
    t.allocate(0x100);
    t.allocate(0x200);
    int n = 0;
    t.forEach([&](Mshr &) { ++n; });
    EXPECT_EQ(n, 2);
}

TEST(MshrTable, FreedEntryRestartsFromDefaults)
{
    MshrTable t(1);
    Mshr *m = t.allocate(0x100);
    m->retries = 5;
    m->onComplete = [](Version) {};
    t.free(0x100);
    EXPECT_EQ(t.size(), 0u);
    Mshr *n = t.allocate(0x200);
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(n->addr, 0x200u);
    EXPECT_EQ(n->retries, 0u);
    EXPECT_FALSE(n->onComplete);
}

// Differential test against the node-based map the table replaced:
// same accept/reject decisions, same live set, and every Mshr* stays
// valid (same object, same contents) from allocate until its free.
TEST(MshrTable, MatchesUnorderedMapReference)
{
    for (std::size_t capacity : {1u, 2u, 16u}) {
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            SCOPED_TRACE(testing::Message() << "capacity " << capacity
                                            << " seed " << seed);
            MshrTable t(capacity);
            std::unordered_map<Addr, std::uint64_t> ref; // line -> tag
            std::map<Addr, Mshr *> ptrs;
            Rng ops(seed);
            std::uint64_t next_tag = 1;
            for (int i = 0; i < 4000; ++i) {
                const Addr line = ops.below(3 * capacity + 2) * 128;
                const std::uint64_t op = ops.below(3);
                if (op == 0) {
                    const bool ok =
                        ref.size() < capacity && !ref.count(line);
                    Mshr *m = t.allocate(line);
                    ASSERT_EQ(m != nullptr, ok) << "step " << i;
                    if (m) {
                        EXPECT_EQ(m->addr, line);
                        EXPECT_EQ(m->txnId, 0u); // fresh state
                        m->txnId = next_tag;
                        ref[line] = next_tag++;
                        ptrs[line] = m;
                    }
                } else if (op == 1) {
                    Mshr *m = t.find(line);
                    auto it = ref.find(line);
                    ASSERT_EQ(m != nullptr, it != ref.end())
                        << "step " << i;
                    if (m) {
                        ASSERT_EQ(m, ptrs[line]) << "step " << i;
                        ASSERT_EQ(m->txnId, it->second) << "step " << i;
                    }
                } else {
                    t.free(line);
                    ref.erase(line);
                    ptrs.erase(line);
                }
                ASSERT_EQ(t.size(), ref.size());
                ASSERT_EQ(t.full(), ref.size() >= capacity);
                // Every live pointer still holds its own state.
                for (const auto &[l, m] : ptrs) {
                    ASSERT_EQ(m->addr, l);
                    ASSERT_EQ(m->txnId, ref[l]);
                }
                std::set<Addr> live;
                t.forEach([&](Mshr &m) { live.insert(m.addr); });
                ASSERT_EQ(live.size(), ref.size());
                for (Addr l : live)
                    ASSERT_TRUE(ref.count(l));
            }
        }
    }
}
