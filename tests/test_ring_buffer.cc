/** @file Unit tests of the hot-path structures introduced by the PR 5
 *  cycle-loop overhaul: the ring buffer behind the ROB / frontend
 *  queue / trace window, and the memory doubleword index behind the
 *  O(1) STLF and memory-order probes. */

#include <gtest/gtest.h>

#include <deque>
#include <string>

#include "common/ring_buffer.hh"
#include "common/rng.hh"
#include "core/wakeup.hh"

namespace rsep
{
namespace
{

TEST(RingBuffer, PushPopWrapsAroundCapacity)
{
    RingBuffer<int> rb(4); // rounds up to a power of two >= 4.
    size_t cap = rb.capacity();
    EXPECT_GE(cap, 4u);
    // Cycle through several capacities' worth of pushes and pops so
    // head wraps the storage repeatedly.
    int next_in = 0, next_out = 0;
    for (int round = 0; round < 64; ++round) {
        while (rb.size() < cap)
            rb.push_back(next_in++);
        EXPECT_EQ(rb.capacity(), cap) << "reserved ring must not grow";
        while (!rb.empty()) {
            EXPECT_EQ(rb.front(), next_out);
            rb.pop_front();
            ++next_out;
        }
    }
    EXPECT_EQ(next_in, next_out);
}

TEST(RingBuffer, RandomAccessMatchesDequeAcrossWrap)
{
    RingBuffer<int> rb(8);
    std::deque<int> ref;
    Rng rng(42);
    int next = 0;
    for (int step = 0; step < 10000; ++step) {
        switch (rng.below(4)) {
          case 0:
          case 1:
            rb.push_back(next);
            ref.push_back(next);
            ++next;
            break;
          case 2:
            if (!ref.empty()) {
                rb.pop_front();
                ref.pop_front();
            }
            break;
          case 3:
            // The squash path: drop the youngest suffix.
            if (!ref.empty()) {
                rb.pop_back();
                ref.pop_back();
            }
            break;
        }
        ASSERT_EQ(rb.size(), ref.size());
        if (!ref.empty()) {
            ASSERT_EQ(rb.front(), ref.front());
            ASSERT_EQ(rb.back(), ref.back());
            size_t mid = ref.size() / 2;
            ASSERT_EQ(rb[mid], ref[mid]);
        }
    }
}

TEST(RingBuffer, SquashSuffixThenRefill)
{
    // The ROB squash pattern: pop_back a suffix while wrapped, then
    // push the re-fetched instructions again.
    RingBuffer<int> rb(8);
    size_t cap = rb.capacity();
    // Advance head so the live span wraps the end of storage.
    for (size_t i = 0; i < cap - 2; ++i)
        rb.push_back(static_cast<int>(i));
    for (size_t i = 0; i < cap - 4; ++i)
        rb.pop_front();
    for (int i = 100; i < 104; ++i)
        rb.push_back(i); // crosses the wrap point.
    ASSERT_EQ(rb.size(), 6u);
    // Squash the youngest three.
    rb.pop_back();
    rb.pop_back();
    rb.pop_back();
    EXPECT_EQ(rb.back(), 100);
    // Refill ("re-fetch") and verify order end to end.
    for (int i = 200; i < 203; ++i)
        rb.push_back(i);
    std::vector<int> got;
    for (size_t i = 0; i < rb.size(); ++i)
        got.push_back(rb[i]);
    EXPECT_EQ(got, (std::vector<int>{
                       static_cast<int>(cap - 4),
                       static_cast<int>(cap - 3), 100, 200, 201, 202}));
}

TEST(RingBuffer, GrowthPreservesOrderAndFreesOnPop)
{
    // Unreserved ring with a non-trivial element type: growth must
    // preserve order, pops must release held resources.
    // Appends rather than `"v" + std::to_string(i)`: GCC 12 at -O3
    // raises a false -Wrestrict on the prepend (GCC bug 105651).
    auto label = [](int i) {
        std::string s = "v";
        s += std::to_string(i);
        return s;
    };
    RingBuffer<std::string> rb;
    for (int i = 0; i < 100; ++i)
        rb.push_back(label(i));
    for (int i = 0; i < 40; ++i)
        rb.pop_front();
    for (int i = 100; i < 400; ++i) // forces several regrows mid-wrap.
        rb.push_back(label(i));
    ASSERT_EQ(rb.size(), 360u);
    for (int i = 0; i < 360; ++i)
        ASSERT_EQ(rb[static_cast<size_t>(i)], label(40 + i));
    rb.clear();
    EXPECT_TRUE(rb.empty());
    rb.push_back("fresh");
    EXPECT_EQ(rb.front(), "fresh");
}

// ---------------------------------------------------------------------
// MemDwordIndex

TEST(MemDwordIndex, StlfAndViolationProbes)
{
    core::MemDwordIndex idx(16);
    const Addr dw = 0x1000;
    idx.addStore(dw, 10);
    idx.addStore(dw, 20);
    idx.addStore(0x2000, 15); // different doubleword: never visible.

    // Youngest older store.
    EXPECT_FALSE(idx.youngestStoreBelow(dw, 10).has_value());
    EXPECT_EQ(idx.youngestStoreBelow(dw, 11).value_or(0), 10u);
    EXPECT_EQ(idx.youngestStoreBelow(dw, 25).value_or(0), 20u);
    EXPECT_FALSE(idx.youngestStoreBelow(0x3000, 99).has_value());

    // Oldest younger issued load.
    idx.addIssuedLoad(dw, 30);
    idx.addIssuedLoad(dw, 12);
    EXPECT_EQ(idx.oldestIssuedLoadAbove(dw, 10).value_or(0), 12u);
    EXPECT_EQ(idx.oldestIssuedLoadAbove(dw, 12).value_or(0), 30u);
    EXPECT_FALSE(idx.oldestIssuedLoadAbove(dw, 30).has_value());

    // Removal (commit / squash paths).
    idx.removeIssuedLoad(dw, 12);
    EXPECT_EQ(idx.oldestIssuedLoadAbove(dw, 10).value_or(0), 30u);
    idx.removeStore(dw, 20);
    EXPECT_EQ(idx.youngestStoreBelow(dw, 25).value_or(0), 10u);
    idx.removeStore(dw, 10);
    idx.removeIssuedLoad(dw, 30);
    EXPECT_FALSE(idx.youngestStoreBelow(dw, 99).has_value());
    // Removing from an evicted or absent doubleword is a no-op.
    idx.removeStore(dw, 10);
    idx.removeStore(0x9000, 1);
}

TEST(MemDwordIndex, CollisionsAndSlotEviction)
{
    // A tiny table forces probe collisions; filling and draining it
    // many times over exercises tombstone reuse and rehash-for-growth.
    core::MemDwordIndex idx(16);
    for (int round = 0; round < 50; ++round) {
        for (u64 i = 0; i < 40; ++i)
            idx.addStore(0x100 + 8 * i, 1000 * round + i);
        for (u64 i = 0; i < 40; ++i)
            EXPECT_EQ(idx.youngestStoreBelow(0x100 + 8 * i,
                                             1000 * round + i + 1)
                          .value_or(~u64{0}),
                      1000 * round + i)
                << "round " << round << " dword " << i;
        for (u64 i = 0; i < 40; ++i)
            idx.removeStore(0x100 + 8 * i, 1000 * round + i);
        EXPECT_EQ(idx.entriesUsed(), 0u);
    }
    // Eviction left entriesUsed at zero, so the table never needs to
    // exceed the worst simultaneous footprint by much.
    EXPECT_LE(idx.slotCapacity(), 256u);
}

TEST(MemDwordIndex, MixedDwordsKeepSeparateHistories)
{
    core::MemDwordIndex idx;
    Rng rng(7);
    // Model: per dword, a sorted reference of store seqs.
    std::vector<std::vector<u64>> ref(32);
    u64 seq = 0;
    for (int step = 0; step < 20000; ++step) {
        u64 d = rng.below(32);
        Addr dword = 0x4000 + 8 * d;
        if (ref[d].empty() || rng.below(3) != 0) {
            idx.addStore(dword, ++seq);
            ref[d].push_back(seq);
        } else {
            size_t k = rng.below(ref[d].size());
            idx.removeStore(dword, ref[d][k]);
            ref[d].erase(ref[d].begin() + static_cast<long>(k));
        }
        u64 probe = seq + 1;
        auto got = idx.youngestStoreBelow(dword, probe);
        if (ref[d].empty())
            ASSERT_FALSE(got.has_value());
        else
            ASSERT_EQ(got.value_or(0), ref[d].back());
    }
}

} // namespace
} // namespace rsep
