/**
 * @file
 * Pins the simulated access stream of every variant of the four paper
 * kernels (stencil5, PSM, heat3d, Figure 1).  Each variant streams
 * once through a MultiMachineSim over the three testbeds; its returned
 * value and each machine's exact cycles, accesses and branches must
 * equal the literals below, captured from an earlier build.  The sizes
 * are small, and every tiled variant ends in partial tiles.
 *
 * test_streaming only checks simulation paths against each other; this
 * suite catches a change to a kernel's storage layout, scan order or
 * charged compute.  A change meant to alter a stream updates the
 * literals in the same commit, and the diff is reviewed like code.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "kernels/heat3d.h"
#include "kernels/psm.h"
#include "kernels/simple.h"
#include "kernels/stencil5.h"
#include "sim/streaming.h"

namespace uov {
namespace {

/** One machine's totals after a kernel pass. */
struct Totals
{
    double cycles;
    uint64_t accesses;
    uint64_t branches;
};

/** A variant's answer and its totals on PentiumPro, Ultra2, Alpha. */
template <typename Variant, typename Result>
struct Pinned
{
    Variant variant;
    Result result;
    std::array<Totals, 3> machines;
};

/**
 * Run @p kernel(variant, mem, arena) for every row of @p table through
 * one fused pass over the three testbeds and compare with the row.
 */
template <typename Variant, typename Result, typename Kernel>
void
expectPinned(const std::vector<Pinned<Variant, Result>> &table,
             const char *(*name)(Variant), Kernel kernel)
{
    for (const auto &want : table) {
        MultiMachineSim sim({MachineConfig::pentiumPro(),
                             MachineConfig::ultra2(),
                             MachineConfig::alpha21164()});
        Result got;
        {
            StreamingSim mem = sim.policy();
            VirtualArena arena;
            got = kernel(want.variant, mem, arena);
        }
        EXPECT_EQ(got, want.result) << name(want.variant);
        for (size_t k = 0; k < want.machines.size(); ++k) {
            const MemorySystem &s = sim.system(k);
            std::string label = std::string(name(want.variant)) +
                                " on " + s.config().name;
            // Bit-identical: the same events charge the same doubles
            // in the same order.
            EXPECT_EQ(s.cycles(), want.machines[k].cycles) << label;
            EXPECT_EQ(s.accesses(), want.machines[k].accesses) << label;
            EXPECT_EQ(s.branches(), want.machines[k].branches) << label;
        }
    }
}

TEST(KernelStreams, Stencil5)
{
    // L=64, T=8; the skewed space 2..79 ends in a partial 16-wide tile.
    Stencil5Config cfg;
    cfg.length = 64;
    cfg.steps = 8;
    cfg.tile_t = 4;
    cfg.tile_s = 16;
    using V = Stencil5Variant;
    const double sum = 34.62397763133049;
    expectPinned<V, double>(
        {
            {V::StorageOptimized, sum,
             {{{5365, 2000, 0},
               {5182, 2000, 0},
               {4771.9999999996699, 2000, 0}}}},
            {V::Natural, sum,
             {{{9573, 3008, 0},
               {7886, 3008, 0},
               {8613.5999999996984, 3008, 0}}}},
            {V::NaturalTiled, sum,
             {{{9573, 3008, 0},
               {7886, 3008, 0},
               {8613.5999999997548, 3008, 0}}}},
            {V::Ov, sum,
             {{{6773, 3008, 0},
               {6402, 3008, 0},
               {5869.5999999994783, 3008, 0}}}},
            {V::OvInterleaved, sum,
             {{{6773, 3008, 0},
               {6402, 3008, 0},
               {5869.599999999482, 3008, 0}}}},
            {V::OvTiled, sum,
             {{{6773, 3008, 0},
               {6402, 3008, 0},
               {5869.5999999994965, 3008, 0}}}},
            {V::OvInterleavedTiled, sum,
             {{{6773, 3008, 0},
               {6402, 3008, 0},
               {5869.5999999994965, 3008, 0}}}},
        },
        stencil5VariantName,
        [&](V v, StreamingSim &mem, VirtualArena &arena) {
            return runStencil5(v, cfg, mem, arena);
        });
}

TEST(KernelStreams, Psm)
{
    // 37 x 53 with 16 x 11 tiles: partial tiles along both axes.
    PsmConfig cfg;
    cfg.n0 = 37;
    cfg.n1 = 53;
    cfg.tile_i = 16;
    cfg.tile_j = 11;
    using V = PsmVariant;
    expectPinned<V, int32_t>(
        {
            {V::StorageOptimized, 57,
             {{{36779.559999998346, 15795, 5883},
               {39538.640000006475, 15795, 5883},
               {35007.900000003603, 15795, 5883}}}},
            {V::Natural, 57,
             {{{70364.560000001715, 17650, 5883},
               {61332.640000008163, 17650, 5883},
               {68898.39999998307, 17650, 5883}}}},
            {V::NaturalTiled, 57,
             {{{70452.560000002166, 17650, 5883},
               {61634.640000008701, 17650, 5883},
               {70058.399999983085, 17650, 5883}}}},
            {V::Ov, 57,
             {{{39334.559999998382, 17650, 5883},
               {41727.640000006577, 17650, 5883},
               {36910.400000001515, 17650, 5883}}}},
            {V::OvTiled, 57,
             {{{39334.559999998375, 17650, 5883},
               {41727.640000006599, 17650, 5883},
               {36910.400000001755, 17650, 5883}}}},
        },
        psmVariantName,
        [&](V v, StreamingSim &mem, VirtualArena &arena) {
            return runPsm(v, cfg, mem, arena);
        });
}

TEST(KernelStreams, Heat3D)
{
    // 20 x 17 planes, T=5, tiles 3/7/6: partial in t, x and y.
    Heat3DConfig cfg;
    cfg.nx = 20;
    cfg.ny = 17;
    cfg.steps = 5;
    cfg.tile_t = 3;
    cfg.tile_x = 7;
    cfg.tile_y = 6;
    using V = Heat3DVariant;
    const double sum = 174.09043015725911;
    expectPinned<V, double>(
        {
            {V::StorageOptimized, sum,
             {{{24105, 14730, 0},
               {23014, 14730, 0},
               {19775.000000007236, 14730, 0}}}},
            {V::Natural, sum,
             {{{30340, 9140, 0},
               {24376, 9140, 0},
               {27414.000000005024, 9140, 0}}}},
            {V::NaturalTiled, sum,
             {{{30340, 9140, 0},
               {24376, 9140, 0},
               {27414.000000005253, 9140, 0}}}},
            {V::Ov, sum,
             {{{20315, 9140, 0},
               {18341, 9140, 0},
               {17544.000000004951, 9140, 0}}}},
            {V::OvTiled, sum,
             {{{20315, 9140, 0},
               {18341, 9140, 0},
               {17544.000000004162, 9140, 0}}}},
        },
        heat3DVariantName,
        [&](V v, StreamingSim &mem, VirtualArena &arena) {
            return runHeat3D(v, cfg, mem, arena);
        });
}

TEST(KernelStreams, Figure1)
{
    // n=40, m=30: the row values wrap modulo 2^64 well before the end.
    using V = SimpleVariant;
    const int64_t sum = 3526955794444753830;
    expectPinned<V, int64_t>(
        {
            {V::Natural, sum,
             {{{27813, 4830, 0},
               {20247, 4830, 0},
               {26091.000000002219, 4830, 0}}}},
            {V::OvMapped, sum,
             {{{9655, 4830, 0},
               {9237, 4830, 0},
               {8202.9999999991578, 4830, 0}}}},
            {V::StorageOptimized, sum,
             {{{7995, 3670, 0},
               {7812, 3670, 0},
               {6900.9999999993524, 3670, 0}}}},
        },
        simpleVariantName,
        [](V v, StreamingSim &mem, VirtualArena &arena) {
            return runSimple(v, 40, 30, mem, arena);
        });
}

} // namespace
} // namespace uov
