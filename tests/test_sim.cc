/**
 * @file
 * Unit tests for the machine simulator: cache behaviour, TLB, page
 * faults, cycle accounting, machine presets.
 */

#include <gtest/gtest.h>

#include "sim/cache.h"
#include "sim/machine.h"
#include "sim/memory_policy.h"
#include "sim/tlb.h"
#include "support/error.h"

namespace uov {
namespace {

TEST(CacheModel, ConfigValidation)
{
    CacheConfig bad{"bad", 1000, 32, 2};
    EXPECT_THROW(Cache{bad}, UovUserError);
    CacheConfig bad_line{"bad", 8192, 33, 2};
    EXPECT_THROW(Cache{bad_line}, UovUserError);
    CacheConfig ok{"ok", 8192, 32, 2};
    EXPECT_NO_THROW(Cache{ok});
    EXPECT_EQ(ok.sets(), 8192 / (32 * 2));
}

TEST(CacheModel, ValidateRejectionMessages)
{
    auto message = [](const CacheConfig &cfg) {
        try {
            cfg.validate();
        } catch (const UovUserError &e) {
            return std::string(e.what());
        }
        return std::string("(no error)");
    };
    // Non-power-of-two line size, reported under the config's name.
    CacheConfig bad_line{"L1X", 8192, 48, 2};
    EXPECT_NE(message(bad_line).find("line size must be a power of two"),
              std::string::npos)
        << message(bad_line);
    EXPECT_NE(message(bad_line).find("L1X"), std::string::npos);
    // Sets = 192 / (32*2) = 3: not a power of two.
    CacheConfig bad_sets{"L2X", 192, 32, 2};
    EXPECT_NE(message(bad_sets).find("set count must be a power of two"),
              std::string::npos)
        << message(bad_sets);
    // Zero associativity.
    CacheConfig bad_assoc{"LA", 8192, 32, 0};
    EXPECT_NE(message(bad_assoc).find("associativity"),
              std::string::npos);
    // Size not divisible into whole sets.
    CacheConfig bad_div{"LD", 100, 32, 2};
    EXPECT_NE(message(bad_div).find("size must be sets*ways*line"),
              std::string::npos)
        << message(bad_div);
    // A valid geometry passes.
    CacheConfig ok{"ok", 8192, 32, 2};
    EXPECT_EQ(message(ok), "(no error)");
}

TEST(CacheModel, HitsOnRepeatedAccess)
{
    Cache c({"t", 1024, 32, 2});
    EXPECT_FALSE(c.access(0));     // cold miss
    EXPECT_TRUE(c.access(0));      // hit
    EXPECT_TRUE(c.access(31));     // same line
    EXPECT_FALSE(c.access(32));    // next line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(CacheModel, LruEvictionWithinSet)
{
    // 2-way, 16 sets of 32B lines: addresses 0, 1024, 2048 map to set
    // 0 (line(addr)/32 mod 16 == 0).
    Cache c({"t", 1024, 32, 2});
    c.access(0);
    c.access(1024);
    c.access(0);    // touch 0 so 1024 becomes LRU
    c.access(2048); // evicts 1024
    EXPECT_TRUE(c.access(2048));
    EXPECT_TRUE(c.access(0));
    EXPECT_FALSE(c.access(1024)); // was evicted (this refills the set)
}

TEST(CacheModel, StreamingMissRateMatchesLineSize)
{
    Cache c({"t", 8192, 32, 1});
    // Stream 64 KiB of 4-byte accesses: expect ~1 miss per 8 accesses.
    for (uint64_t a = 0; a < (64 << 10); a += 4)
        c.access(a);
    EXPECT_NEAR(c.missRate(), 1.0 / 8.0, 0.01);
}

TEST(CacheModel, WorkingSetFitsAfterWarmup)
{
    Cache c({"t", 8192, 32, 2});
    for (int pass = 0; pass < 4; ++pass)
        for (uint64_t a = 0; a < 8192; a += 4)
            c.access(a);
    // 3 warm passes out of 4: hit rate approaches 1 - 1/(4*8).
    EXPECT_GT(static_cast<double>(c.hits()) / c.accesses(), 0.95);
}

TEST(CacheModel, WritebacksTrackDirtyEvictions)
{
    // Direct-mapped, 2 sets of 32B lines: addresses 0 and 64 collide.
    Cache c({"t", 64, 32, 1});
    c.access(0, true);   // fill dirty
    EXPECT_EQ(c.writebacks(), 0u);
    c.access(64, false); // evicts dirty line 0 -> writeback
    EXPECT_EQ(c.writebacks(), 1u);
    c.access(0, false);  // evicts clean line 64 -> no writeback
    EXPECT_EQ(c.writebacks(), 1u);
    c.access(64, true);  // evicts clean line 0
    c.access(0, false);  // evicts dirty line 64 -> writeback
    EXPECT_EQ(c.writebacks(), 2u);
}

TEST(MemorySystemModel, WritebacksCostCycles)
{
    MachineConfig m = MachineConfig::pentiumPro();
    auto stream = [&](bool writes) {
        MemorySystem ms(m);
        // Two passes so the second pass evicts pass-one lines.
        for (int pass = 0; pass < 2; ++pass)
            for (uint64_t a = 0; a < (64 << 10); a += 32)
                ms.access(a + pass * (1 << 20), writes);
        return ms.cycles();
    };
    EXPECT_GT(stream(true), stream(false));
}

TEST(TlbModel, LruOverPages)
{
    Tlb t(2, 4096);
    EXPECT_FALSE(t.access(0));
    EXPECT_FALSE(t.access(4096));
    EXPECT_TRUE(t.access(100));     // page 0 still resident
    EXPECT_FALSE(t.access(3 << 12)); // evicts page 1 (LRU)
    EXPECT_TRUE(t.access(0));
    EXPECT_FALSE(t.access(4096));
    EXPECT_THROW(Tlb(0, 4096), UovUserError);
    EXPECT_THROW(Tlb(4, 1000), UovUserError);
}

TEST(MachinePresets, ThreeTestbedsConstruct)
{
    for (const MachineConfig &cfg :
         {MachineConfig::pentiumPro(), MachineConfig::ultra2(),
          MachineConfig::alpha21164()}) {
        MemorySystem ms(cfg);
        EXPECT_EQ(ms.cycles(), 0.0) << cfg.name;
        ms.access(64, false);
        EXPECT_GT(ms.cycles(), 0.0) << cfg.name;
    }
    EXPECT_NE(MachineConfig::alpha21164().l3, std::nullopt);
    EXPECT_EQ(MachineConfig::pentiumPro().l3, std::nullopt);
}

TEST(MemorySystemModel, HitCostLessThanMissCost)
{
    MemorySystem ms(MachineConfig::pentiumPro());
    ms.access(0, false);
    double cold = ms.cycles();
    ms.access(0, false);
    double warm = ms.cycles() - cold;
    EXPECT_LT(warm, cold);
}

TEST(MemorySystemModel, LargeFootprintCausesPageFaults)
{
    MachineConfig tiny = MachineConfig::pentiumPro();
    tiny.memory_bytes = 1 << 20; // 1 MiB of "RAM"
    MemorySystem ms(tiny);
    // Touch 4 MiB twice; the second pass must still fault (capacity).
    for (int pass = 0; pass < 2; ++pass)
        for (uint64_t a = 0; a < (4 << 20); a += 4096)
            ms.access(a, true);
    EXPECT_GT(ms.pageFaults(), 1024u);
}

TEST(MemorySystemModel, SmallFootprintStaysResident)
{
    // Cold first touches are minor faults, not disk faults: with the
    // footprint far below memory, no major fault is ever charged.
    MemorySystem ms(MachineConfig::pentiumPro());
    for (int pass = 0; pass < 3; ++pass)
        for (uint64_t a = 0; a < (1 << 20); a += 64)
            ms.access(a, false);
    EXPECT_EQ(ms.pageFaults(), 0u);
}

TEST(MemorySystemModel, MinorFaultsCheaperThanMajorFaults)
{
    MachineConfig tiny = MachineConfig::pentiumPro();
    tiny.memory_bytes = 64 << 10; // 16 pages
    MemorySystem cold(tiny);
    for (uint64_t p = 0; p < 8; ++p)
        cold.access(p << 12, true); // 8 minor faults
    double minor_cost = cold.cycles();

    MemorySystem thrash(tiny);
    for (uint64_t p = 0; p < 32; ++p)
        thrash.access(p << 12, true); // 16 minor then 16 major
    EXPECT_GT(thrash.cycles(), 10 * minor_cost);
    EXPECT_EQ(thrash.pageFaults(), 16u);
}

TEST(MemorySystemModel, BranchAccounting)
{
    MemorySystem ms(MachineConfig::ultra2());
    double before = ms.cycles();
    ms.branch();
    const auto &cfg = ms.config();
    EXPECT_DOUBLE_EQ(ms.cycles() - before,
                     cfg.branch_cycles +
                         cfg.branch_mispredict_rate *
                             cfg.branch_mispredict_cycles);
    EXPECT_EQ(ms.branches(), 1u);
}

TEST(MemorySystemModel, NextLinePrefetchAcceleratesStreams)
{
    MachineConfig base = MachineConfig::ultra2();
    MachineConfig pf = base;
    pf.next_line_prefetch = true;

    auto stream_cycles = [](const MachineConfig &cfg) {
        MemorySystem ms(cfg);
        // 1 MiB sequential stream of floats: misses every 8th access
        // in a 32B-line L1.
        for (uint64_t a = (32 << 20); a < (33 << 20); a += 4)
            ms.access(a, false);
        return ms.cycles();
    };
    double without = stream_cycles(base);
    double with = stream_cycles(pf);
    EXPECT_LT(with, without * 0.8);

    MemorySystem ms(pf);
    for (uint64_t a = 0; a < (1 << 20); a += 4)
        ms.access(a, false);
    EXPECT_GT(ms.prefetchHits(), 1000u);
}

TEST(MemorySystemModel, PrefetchDoesNotHelpRandomAccess)
{
    MachineConfig pf = MachineConfig::ultra2();
    pf.next_line_prefetch = true;
    MemorySystem ms(pf);
    uint64_t a = 12345;
    for (int i = 0; i < 10000; ++i) {
        a = a * 6364136223846793005ULL + 1442695040888963407ULL;
        ms.access(a % (64 << 20), false);
    }
    // Random lines almost never continue a stream.
    EXPECT_LT(ms.prefetchHits(), 200u);
}

TEST(VirtualArenaModel, NonOverlappingAlignedRanges)
{
    VirtualArena arena;
    uint64_t a = arena.allocate(100);
    uint64_t b = arena.allocate(100);
    EXPECT_GE(b, a + 100);
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 64, 0u);
}

TEST(SimBufferModel, AddressesTrackIndices)
{
    VirtualArena arena;
    SimBuffer<float> buf(arena, 16, 1.5f);
    EXPECT_EQ(buf.size(), 16u);
    EXPECT_EQ(buf[3], 1.5f);
    EXPECT_EQ(buf.addr(4) - buf.addr(0), 4 * sizeof(float));
}

TEST(MemoryPolicies, SimMemRecordsNativeDoesNot)
{
    VirtualArena arena;
    SimBuffer<int> buf(arena, 8, 3);
    MemorySystem ms(MachineConfig::pentiumPro());

    NativeMem native;
    EXPECT_EQ(native.load(buf, 2), 3);
    native.store(buf, 2, 9);
    EXPECT_EQ(ms.accesses(), 0u);

    SimMem sim{&ms};
    EXPECT_EQ(sim.load(buf, 2), 9);
    sim.store(buf, 3, 4);
    EXPECT_EQ(ms.accesses(), 2u);
    EXPECT_EQ(buf[3], 4);
}

} // namespace
} // namespace uov
