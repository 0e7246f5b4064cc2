/**
 * @file
 * Unit tests for the memory substrate: arena allocation/alignment,
 * typed nv<> accessors, write-interception hooks, and the Table 3
 * footprint ledger.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mem/footprint.hpp"
#include "mem/nv.hpp"
#include "mem/nvram.hpp"

using namespace ticsim;
using namespace ticsim::mem;

TEST(NvRam, AllocatesAlignedRegions)
{
    NvRam ram(4096);
    const Addr a = ram.allocate("a", 3, 1);
    const Addr b = ram.allocate("b", 8, 8);
    EXPECT_EQ(b % 8, 0u);
    EXPECT_GT(b, a);
    EXPECT_EQ(ram.regions().size(), 2u);
    EXPECT_EQ(ram.regions()[0].name, "a");
    EXPECT_GE(ram.used(), 11u);
}

TEST(NvRam, HostPointerRoundTrip)
{
    NvRam ram(1024);
    const Addr a = ram.allocate("x", 16);
    auto *p = ram.hostPtr(a);
    EXPECT_TRUE(ram.contains(p));
    EXPECT_TRUE(ram.contains(p + 15));
    EXPECT_EQ(ram.addrOf(p), a);
    int onStack = 0;
    EXPECT_FALSE(ram.contains(&onStack));
}

namespace {

/** Every arena byte in [from, to) reads 0. */
void
expectZero(const NvRam &ram, Addr from, Addr to)
{
    const std::uint8_t *p = ram.hostPtr(0);
    for (Addr a = from; a < to; ++a)
        ASSERT_EQ(p[a], 0u) << "addr " << a;
}

} // namespace

TEST(NvRam, AllocateZeroesRegionAndPadding)
{
    NvRam ram(64 * 1024);
    ram.allocate("odd", 3, 1);
    ram.allocate("aligned", 100, 64);  // 61 bytes of padding before it
    ram.allocate("big", 20000, 8);
    ram.allocate("tail", 1, 4096);
    EXPECT_EQ(ram.regions()[1].base, 64u);
    // Regions and all padding between them, up to the bump pointer.
    expectZero(ram, 0, ram.used());
}

TEST(NvRam, FreshArenaReadsZeroAfterMallocReuse)
{
    // Dirty and destroy arenas so the allocator hands their memory
    // back; every new arena must still read 0 wherever it allocates.
    for (int round = 0; round < 8; ++round) {
        NvRam ram(256 * 1024);
        ram.allocate("a", 5, 1);
        ram.allocate("b", 96 * 1024, 64);
        ram.allocate("c", 4000, 8);
        expectZero(ram, 0, ram.used());
        for (const NvRegion &r : ram.regions())
            std::memset(ram.hostPtr(r.base), 0xA5, r.size);
        // A late region after dirtying is zeroed too, padding included.
        const Addr end = ram.used();
        ram.allocate("late", 1000, 256);
        expectZero(ram, end, ram.used());
    }
}

TEST(NvRam, TrafficAccounting)
{
    NvRam ram(256);
    ram.accountWrite(10);
    ram.accountWrite(6);
    ram.accountRead(4);
    EXPECT_EQ(ram.stats().counterValue("bytesWritten"), 16u);
    EXPECT_EQ(ram.stats().counterValue("writes"), 2u);
    EXPECT_EQ(ram.stats().counterValue("reads"), 1u);
}

namespace {

/** Recording hooks for interception tests. */
struct SpyHooks : MemHooks {
    std::vector<std::pair<void *, std::uint32_t>> writes;
    std::vector<std::pair<const void *, std::uint32_t>> reads;

    void
    preWrite(void *p, std::uint32_t n) override
    {
        writes.emplace_back(p, n);
    }

    void
    preRead(const void *p, std::uint32_t n) override
    {
        reads.emplace_back(p, n);
    }
};

} // namespace

TEST(Nv, WritesRouteThroughHooks)
{
    NvRam ram(1024);
    nv<int> x(ram, "x");
    SpyHooks spy;
    {
        ScopedHooks sh(&spy);
        x = 42;
        EXPECT_EQ(static_cast<int>(x), 42);
    }
    ASSERT_EQ(spy.writes.size(), 1u);
    EXPECT_EQ(spy.writes[0].first, x.raw());
    EXPECT_EQ(spy.writes[0].second, sizeof(int));
    ASSERT_EQ(spy.reads.size(), 1u);
}

TEST(Nv, HooksCapturePreWriteState)
{
    NvRam ram(1024);
    nv<int> x(ram, "x", 7);

    struct UndoingHooks : MemHooks {
        int captured = -1;
        void
        preWrite(void *p, std::uint32_t n) override
        {
            ASSERT_EQ(n, sizeof(int));
            std::memcpy(&captured, p, n); // must see the OLD value
        }
    } hooks;
    ScopedHooks sh(&hooks);
    x = 9;
    EXPECT_EQ(hooks.captured, 7);
    EXPECT_EQ(x.get(), 9);
}

TEST(Nv, CompoundOperators)
{
    NvRam ram(1024);
    nv<int> x(ram, "x", 10);
    x += 5;
    EXPECT_EQ(x.get(), 15);
    x -= 3;
    EXPECT_EQ(x.get(), 12);
    ++x;
    EXPECT_EQ(x.get(), 13);
}

TEST(Nv, ScopedHooksRestorePrevious)
{
    SpyHooks outer;
    SpyHooks inner;
    MemHooks *before = setHooks(nullptr); // pass-through
    {
        ScopedHooks a(&outer);
        {
            ScopedHooks b(&inner);
            EXPECT_EQ(&hooks(), &inner);
        }
        EXPECT_EQ(&hooks(), &outer);
    }
    setHooks(before);
}

TEST(NvArray, ElementAccessAndHooks)
{
    NvRam ram(2048);
    nvArray<std::uint16_t, 8> arr(ram, "arr");
    SpyHooks spy;
    {
        ScopedHooks sh(&spy);
        arr.set(3, 77);
        EXPECT_EQ(arr.get(3), 77);
    }
    ASSERT_EQ(spy.writes.size(), 1u);
    EXPECT_EQ(spy.writes[0].first, arr.raw() + 3);
    EXPECT_EQ(arr.size(), 8u);
}

TEST(Footprint, TotalsHonorExclusions)
{
    Footprint f;
    f.add("code", 1000, 0);
    f.add("buffers", 0, 256);
    f.add("segment array", 0, 4096, /*excluded=*/true);
    EXPECT_EQ(f.textTotal(), 1000u);
    EXPECT_EQ(f.dataTotal(), 256u);
    EXPECT_EQ(f.items().size(), 3u);
    f.clear();
    EXPECT_EQ(f.dataTotal(), 0u);
}
