/**
 * @file
 * Unit tests for the memory substrate: arena allocation/alignment,
 * typed nv<> accessors, the memory port's write interception, and the
 * Table 3 footprint ledger.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "mem/footprint.hpp"
#include "mem/nv.hpp"
#include "mem/nvram.hpp"
#include "mem/port.hpp"

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

    void
    preWrite(void *p, std::uint32_t n) override
    {
        writes.emplace_back(p, n);
    }
};

/** One object in all three store roles, logging the dispatch order. */
struct OrderSpy final : MemHooks, AccessSink, StoreGate {
    std::vector<std::string> calls;

    void preWrite(void *, std::uint32_t) override
    {
        calls.emplace_back("preWrite");
    }
    void memRead(const void *, std::uint32_t) override
    {
        calls.emplace_back("memRead");
    }
    void memWrite(const void *, std::uint32_t) override
    {
        calls.emplace_back("memWrite");
    }
    void memVersioned(const void *, std::uint32_t) override {}
    void powerOn() override {}
    void commit() override {}
    void
    store(StoreSite, void *dst, const void *src,
          std::uint32_t bytes) override
    {
        calls.emplace_back("store");
        journalNote(dst, bytes); // the explorer's gate does the same
        std::memcpy(dst, src, bytes);
    }
};

} // namespace

TEST(Nv, WritesRouteThroughHooks)
{
    NvRam ram(1024);
    nv<int> x(ram, "x");
    SpyHooks spy;
    {
        const ScopedPort port({.hooks = &spy});
        x = 42;
        EXPECT_EQ(static_cast<int>(x), 42);
    }
    ASSERT_EQ(spy.writes.size(), 1u);
    EXPECT_EQ(spy.writes[0].first, x.raw());
    EXPECT_EQ(spy.writes[0].second, sizeof(int));
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
    const ScopedPort port({.hooks = &hooks});
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

TEST(MemPort, NestedScopesOverlayAndRestore)
{
    NvRam ram(1024);
    nv<int> x(ram, "x");
    SpyHooks outer;
    SpyHooks inner;
    OrderSpy sink;
    ASSERT_EQ(port().hooks, nullptr);
    {
        const ScopedPort a({.hooks = &outer, .sink = &sink});
        {
            // Overlay one role the way Board::continueRun does.
            MemPort p = port();
            p.hooks = &inner;
            const ScopedPort b(p);
            EXPECT_EQ(port().hooks, &inner);
            EXPECT_EQ(port().sink, &sink);
            x = 1;
        }
        EXPECT_EQ(port().hooks, &outer);
        EXPECT_EQ(port().sink, &sink);
        x = 2;
        {
            // An all-null port detaches everything for its scope.
            const ScopedPort none(MemPort{});
            EXPECT_EQ(port().hooks, nullptr);
            EXPECT_EQ(port().sink, nullptr);
            x = 3;
        }
        EXPECT_EQ(port().hooks, &outer);
    }
    const MemPort after = port();
    EXPECT_EQ(after.hooks, nullptr);
    EXPECT_EQ(after.sink, nullptr);
    EXPECT_EQ(inner.writes.size(), 1u);
    EXPECT_EQ(outer.writes.size(), 1u);
    EXPECT_EQ(sink.calls,
              (std::vector<std::string>{"memWrite", "memWrite"}));
    EXPECT_EQ(x.get(), 3);
}

TEST(MemPort, StoreDispatchesHooksThenSinkThenGate)
{
    NvRam ram(1024);
    nv<int> x(ram, "x", 5);
    OrderSpy spy;
    WriteJournal journal;
    {
        const ScopedPort port({.hooks = &spy,
                               .sink = &spy,
                               .gate = &spy,
                               .journal = &journal});
        x = 8;
    }
    EXPECT_EQ(spy.calls, (std::vector<std::string>{"preWrite", "memWrite",
                                                   "store"}));
    EXPECT_EQ(x.get(), 8);
    // The gate's journal note was taken before the bytes changed, so
    // rolling the journal back restores the old value.
    ASSERT_EQ(journal.records(), 1u);
    journal.undoTo(0);
    EXPECT_EQ(x.get(), 5);
}

TEST(NvArray, ElementAccessAndHooks)
{
    NvRam ram(2048);
    nvArray<std::uint16_t, 8> arr(ram, "arr");
    SpyHooks spy;
    {
        const ScopedPort port({.hooks = &spy});
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
