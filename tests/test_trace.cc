/**
 * @file
 * Tests for trace recording and replay: record-once/replay-anywhere
 * equivalence with direct simulation, the packed 8-byte event
 * encoding, chunked storage, footprint accounting, and the Table 1
 * storage story read off real address streams.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "kernels/psm.h"
#include "kernels/stencil5.h"
#include "sim/trace.h"

namespace uov {
namespace {

TEST(TraceEventPacked, RoundTripOverFullAddressRange)
{
    ASSERT_EQ(sizeof(TraceEvent), 8u);
    const uint64_t max_addr = TraceEvent::kPayloadMask; // 2^62 - 1
    std::vector<uint64_t> addrs = {0,
                                   1,
                                   64,
                                   4096,
                                   (uint64_t{1} << 20),
                                   (uint64_t{1} << 40) + 12345,
                                   (uint64_t{1} << 61),
                                   max_addr - 1,
                                   max_addr};
    // A few pseudo-random points across the range too.
    uint64_t x = 0x243f6a8885a308d3ull;
    for (int i = 0; i < 64; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        addrs.push_back(x & TraceEvent::kPayloadMask);
    }
    for (uint64_t a : addrs) {
        for (auto k : {TraceEvent::Kind::Load, TraceEvent::Kind::Store}) {
            TraceEvent e(k, a);
            EXPECT_EQ(e.kind(), k) << a;
            EXPECT_EQ(e.addr(), a) << a;
        }
    }
    TraceEvent b(TraceEvent::Kind::Branch, 0);
    EXPECT_EQ(b.kind(), TraceEvent::Kind::Branch);
    EXPECT_EQ(b.addr(), 0u);
}

TEST(TraceEventPacked, EqualitySemantics)
{
    TraceEvent a(TraceEvent::Kind::Load, 4096);
    TraceEvent b(TraceEvent::Kind::Load, 4096);
    TraceEvent c(TraceEvent::Kind::Store, 4096); // same addr, other kind
    TraceEvent d(TraceEvent::Kind::Load, 4100);  // same kind, other addr
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(a, d);
    EXPECT_NE(c, d);
}

TEST(TraceEventPacked, ComputeHintRoundTrips)
{
    for (double cycles : {0.0, 1.0, 3.0, 4.0, 0.5, 12.25}) {
        TraceEvent e = TraceEvent::compute(cycles);
        EXPECT_EQ(e.kind(), TraceEvent::Kind::Compute);
        EXPECT_DOUBLE_EQ(e.computeCycles(), cycles);
    }
}

TEST(TraceModel, ChunkedRecordingCrossesChunkBoundaries)
{
    Trace t;
    const size_t n = 2 * Trace::kChunkEvents + 3;
    for (size_t i = 0; i < n; ++i)
        t.record(i % 2 ? TraceEvent::Kind::Store
                       : TraceEvent::Kind::Load,
                 i * 4);
    EXPECT_EQ(t.size(), n);
    EXPECT_EQ(t.loadCount() + t.storeCount(), n);
    // Spot-check both sides of each chunk boundary.
    for (size_t i : {size_t{0}, Trace::kChunkEvents - 1,
                     Trace::kChunkEvents, 2 * Trace::kChunkEvents,
                     n - 1}) {
        EXPECT_EQ(t.at(i).addr(), i * 4) << i;
    }
    EXPECT_THROW(t.at(n), UovUserError);
    // forEach visits everything in record order.
    size_t seen = 0;
    t.forEach([&](const TraceEvent &e) {
        if (seen == Trace::kChunkEvents) {
            EXPECT_EQ(e.addr(), Trace::kChunkEvents * 4);
        }
        ++seen;
    });
    EXPECT_EQ(seen, n);
}

TEST(TraceModel, CountsAndFootprint)
{
    Trace t;
    t.record(TraceEvent::Kind::Load, 0);
    t.record(TraceEvent::Kind::Load, 8);
    t.record(TraceEvent::Kind::Store, 64);
    t.record(TraceEvent::Kind::Branch, 0);
    t.recordCompute(3.0); // excluded from footprint and counts
    EXPECT_EQ(t.loadCount(), 2u);
    EXPECT_EQ(t.storeCount(), 1u);
    EXPECT_EQ(t.branchCount(), 1u);
    // Two 64-byte lines touched; the packed branch/compute payloads
    // must not leak into the footprint.
    EXPECT_EQ(t.footprintBytes(64), 128u);
}

TEST(TraceModel, ReplayMatchesDirectSimulation)
{
    Stencil5Config cfg;
    cfg.length = 256;
    cfg.steps = 6;

    // Record once.
    Trace trace;
    double kernel_result;
    double recorded_compute;
    {
        VirtualArena arena;
        TracingMem mem{&trace, 0};
        kernel_result = runStencil5(Stencil5Variant::Ov, cfg, mem,
                                    arena);
        recorded_compute = mem.compute_cycles;
    }
    EXPECT_GT(trace.size(), 0u);

    // Direct simulation with identical addresses.
    double direct_result;
    MemorySystem direct(MachineConfig::pentiumPro());
    {
        VirtualArena arena;
        SimMem mem{&direct};
        direct_result =
            runStencil5(Stencil5Variant::Ov, cfg, mem, arena);
    }
    EXPECT_EQ(kernel_result, direct_result);

    // Replay: identical access stream, and compute hints replayed in
    // stream order -> bit-identical cycles.
    MemorySystem replayed(MachineConfig::pentiumPro());
    double replay_cycles = trace.replay(replayed);
    EXPECT_EQ(replayed.accesses(), direct.accesses());
    EXPECT_EQ(replayed.l1().misses(), direct.l1().misses());
    EXPECT_EQ(replayed.pageFaults(), direct.pageFaults());
    EXPECT_EQ(replay_cycles, direct.cycles());
    // The recorder still totals the hints for summary consumers.
    EXPECT_DOUBLE_EQ(recorded_compute,
                     3.0 * (cfg.length - 4) * cfg.steps);
}

TEST(TraceModel, ReplayAcrossMachinesWithoutRerunningKernel)
{
    Stencil5Config cfg;
    cfg.length = 512;
    cfg.steps = 4;
    Trace trace;
    {
        VirtualArena arena;
        TracingMem mem{&trace, 0};
        runStencil5(Stencil5Variant::Natural, cfg, mem, arena);
    }
    double prev = 0;
    for (const MachineConfig &m :
         {MachineConfig::pentiumPro(), MachineConfig::ultra2(),
          MachineConfig::alpha21164()}) {
        MemorySystem ms(m);
        double c = trace.replay(ms);
        EXPECT_GT(c, 0.0) << m.name;
        EXPECT_NE(c, prev) << m.name; // machines differ
        prev = c;
    }
}

TEST(TraceModel, InterleavedAndBlockedAddressSignatures)
{
    // The two Figure 5 layouts must be visible in the raw address
    // streams: blocked writes march in 4-byte steps within a row,
    // interleaved writes in 8-byte steps (two floats per element).
    Stencil5Config cfg;
    cfg.length = 64;
    cfg.steps = 2;
    auto write_stride = [&](Stencil5Variant v) {
        Trace t;
        VirtualArena arena;
        TracingMem mem{&t, 0};
        runStencil5(v, cfg, mem, arena);
        // Find two consecutive interior stores and report their gap.
        uint64_t prev = 0;
        std::vector<uint64_t> gaps;
        t.forEach([&](const TraceEvent &e) {
            if (e.kind() != TraceEvent::Kind::Store)
                return;
            if (prev != 0 && e.addr() > prev)
                gaps.push_back(e.addr() - prev);
            prev = e.addr();
        });
        // The dominant gap.
        std::sort(gaps.begin(), gaps.end());
        return gaps[gaps.size() / 2];
    };
    EXPECT_EQ(write_stride(Stencil5Variant::Ov), 4u);
    EXPECT_EQ(write_stride(Stencil5Variant::OvInterleaved), 8u);
}

TEST(TraceModel, PsmTraceCountsBranchesAndTableLoads)
{
    PsmConfig cfg;
    cfg.n0 = 16;
    cfg.n1 = 20;
    Trace t;
    VirtualArena arena;
    TracingMem mem{&t, 0};
    runPsm(PsmVariant::Natural, cfg, mem, arena);
    EXPECT_EQ(t.branchCount(),
              static_cast<uint64_t>(3 * cfg.n0 * cfg.n1));
    // Loads per iteration: 2 string chars + 1 weight + 4 dp reads.
    EXPECT_GE(t.loadCount(),
              static_cast<uint64_t>(7 * cfg.n0 * cfg.n1));
}

TEST(TraceModel, FootprintsTellTheTable1Story)
{
    Stencil5Config cfg;
    cfg.length = 1024;
    cfg.steps = 8;
    auto footprint = [&](Stencil5Variant v) {
        Trace t;
        VirtualArena arena;
        TracingMem mem{&t, 0};
        runStencil5(v, cfg, mem, arena);
        return t.footprintBytes(4); // element-granular
    };
    uint64_t natural = footprint(Stencil5Variant::Natural);
    uint64_t ov = footprint(Stencil5Variant::Ov);
    uint64_t opt = footprint(Stencil5Variant::StorageOptimized);
    // Natural ~ (T+1)L floats; OV ~ 2L; optimized ~ L.
    EXPECT_GT(natural, 3 * ov);
    EXPECT_GT(ov, opt);
    EXPECT_NEAR(static_cast<double>(ov) / (2 * 1024 * 4), 1.0, 0.05);
}

} // namespace
} // namespace uov
