/** @file Recently-invalidated-lines (tombstone) buffer tests. */

#include <gtest/gtest.h>

#include <deque>
#include <unordered_map>

#include "src/cache/tombstone_buffer.hh"
#include "src/sim/random.hh"

using namespace pcsim;

namespace
{

constexpr std::size_t kCap = TombstoneBuffer::capacity;

/** The map + FIFO formulation the buffer must reproduce exactly. */
class ReferenceTombstones
{
  public:
    void
    record(Addr line, Version version)
    {
        auto [it, inserted] = _map.try_emplace(line, version);
        if (!inserted) {
            if (version > it->second)
                it->second = version;
            return;
        }
        _fifo.push_back(line);
        if (_fifo.size() > kCap) {
            _map.erase(_fifo.front());
            _fifo.pop_front();
        }
    }

    const Version *
    find(Addr line) const
    {
        auto it = _map.find(line);
        return it == _map.end() ? nullptr : &it->second;
    }

    std::size_t size() const { return _map.size(); }

  private:
    std::unordered_map<Addr, Version> _map;
    std::deque<Addr> _fifo;
};

} // namespace

TEST(TombstoneBuffer, EmptyFindsNothing)
{
    TombstoneBuffer t;
    EXPECT_EQ(t.find(0x80), nullptr);
    EXPECT_EQ(t.size(), 0u);
}

TEST(TombstoneBuffer, ReRecordKeepsMaxVersion)
{
    TombstoneBuffer t;
    t.record(0x80, 5);
    t.record(0x80, 3);
    ASSERT_NE(t.find(0x80), nullptr);
    EXPECT_EQ(*t.find(0x80), 5u);
    t.record(0x80, 9);
    EXPECT_EQ(*t.find(0x80), 9u);
    EXPECT_EQ(t.size(), 1u);
}

TEST(TombstoneBuffer, EvictsOldestBeyondCapacity)
{
    TombstoneBuffer t;
    for (std::size_t i = 0; i < kCap; ++i)
        t.record(i * 128, i);
    EXPECT_EQ(t.size(), kCap);
    t.record(kCap * 128, 1);
    EXPECT_EQ(t.size(), kCap);
    EXPECT_EQ(t.find(0), nullptr); // the oldest went
    for (std::size_t i = 1; i <= kCap; ++i)
        EXPECT_NE(t.find(i * 128), nullptr) << i;
}

TEST(TombstoneBuffer, ReRecordKeepsFifoPosition)
{
    TombstoneBuffer t;
    for (std::size_t i = 0; i < kCap; ++i)
        t.record(i * 128, 1);
    // Refreshing the oldest line does not make it young again.
    t.record(0, 7);
    t.record(kCap * 128, 1);
    EXPECT_EQ(t.find(0), nullptr);
    ASSERT_NE(t.find(128), nullptr);
    t.record((kCap + 1) * 128, 1);
    EXPECT_EQ(t.find(128), nullptr);
}

// Seeded differential test: lines drawn from pools smaller and larger
// than the capacity, with clustered (same-home-bucket-prone) and
// scattered addresses, must give the reference's answers after every
// step -- eviction order, FIFO position on re-record and max version.
TEST(TombstoneBuffer, MatchesMapAndFifoReference)
{
    for (std::uint64_t pool : {40u, 130u, 300u, 5000u}) {
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            SCOPED_TRACE(testing::Message() << "pool " << pool
                                            << " seed " << seed);
            TombstoneBuffer t;
            ReferenceTombstones ref;
            Rng ops(seed * 31 + pool);
            for (int i = 0; i < 20000; ++i) {
                const std::uint64_t k = ops.below(pool);
                // Alternate dense and sparse address spacing.
                const Addr line = (k & 1) ? k * 128 : (k << 20) + 128;
                if (ops.below(2) == 0) {
                    const Version v =
                        static_cast<Version>(ops.below(1000));
                    t.record(line, v);
                    ref.record(line, v);
                }
                const Version *got = t.find(line);
                const Version *want = ref.find(line);
                ASSERT_EQ(got != nullptr, want != nullptr) << "step " << i;
                if (got) {
                    ASSERT_EQ(*got, *want) << "step " << i;
                }
                ASSERT_EQ(t.size(), ref.size()) << "step " << i;
                if (i % 997 == 0) {
                    // Full sweep of the pool.
                    for (std::uint64_t j = 0; j < pool; ++j) {
                        const Addr l = (j & 1) ? j * 128 : (j << 20) + 128;
                        ASSERT_EQ(t.find(l) != nullptr,
                                  ref.find(l) != nullptr)
                            << "step " << i << " line " << l;
                    }
                }
            }
        }
    }
}
