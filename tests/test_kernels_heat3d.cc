/**
 * @file
 * Tests for the 3-D heat kernel: identical results across variants
 * and shapes, the storage each variant touches, agreement with the
 * 3-D UOV machinery, and simulated runs.
 */

#include <gtest/gtest.h>

#include "core/search.h"
#include "core/uov.h"
#include "kernels/heat3d.h"
#include "schedule/legality.h"
#include "sim/trace.h"

namespace uov {
namespace {

double
runNative(Heat3DVariant v, const Heat3DConfig &cfg)
{
    VirtualArena arena;
    NativeMem mem;
    return runHeat3D(v, cfg, mem, arena);
}

/** Bytes a variant's run touches, element-granular. */
uint64_t
footprintBytes(Heat3DVariant v, const Heat3DConfig &cfg)
{
    Trace trace;
    VirtualArena arena;
    TracingMem mem{&trace, 0};
    runHeat3D(v, cfg, mem, arena);
    return trace.footprintBytes(sizeof(float));
}

TEST(Heat3DKernel, AllVariantsAgreeBitwise)
{
    Heat3DConfig cfg;
    cfg.nx = 21;
    cfg.ny = 17;
    cfg.steps = 7; // odd
    cfg.tile_t = 3;
    cfg.tile_x = 9;
    cfg.tile_y = 5;
    double reference = runNative(Heat3DVariant::Natural, cfg);
    for (Heat3DVariant v : allHeat3DVariants())
        EXPECT_EQ(runNative(v, cfg), reference)
            << heat3DVariantName(v);
}

class Heat3DSweep
    : public ::testing::TestWithParam<
          std::tuple<int64_t, int64_t, int64_t>>
{
};

TEST_P(Heat3DSweep, VariantsAgreeAcrossShapes)
{
    auto [nx, ny, steps] = GetParam();
    Heat3DConfig cfg;
    cfg.nx = nx;
    cfg.ny = ny;
    cfg.steps = steps;
    cfg.tile_t = 2;
    cfg.tile_x = 7;
    cfg.tile_y = 11;
    double reference = runNative(Heat3DVariant::Natural, cfg);
    for (Heat3DVariant v : allHeat3DVariants())
        EXPECT_EQ(runNative(v, cfg), reference)
            << heat3DVariantName(v) << " " << nx << "x" << ny << "x"
            << steps;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Heat3DSweep,
    ::testing::Values(std::make_tuple(4, 4, 1),
                      std::make_tuple(5, 9, 3),
                      std::make_tuple(16, 16, 8),
                      std::make_tuple(33, 7, 5)));

TEST(Heat3DKernel, StorageFormulas)
{
    // Every cell a variant allocates is touched: T+1 planes for the
    // natural layout, two for UOV (2,0,0), and one plane plus two rows
    // for the in-place variant.
    Heat3DConfig cfg;
    cfg.nx = 10;
    cfg.ny = 8;
    cfg.steps = 5;
    const uint64_t row = 8 * sizeof(float);
    const uint64_t plane = 10 * row;
    EXPECT_EQ(footprintBytes(Heat3DVariant::Natural, cfg), 6 * plane);
    EXPECT_EQ(footprintBytes(Heat3DVariant::OvTiled, cfg), 2 * plane);
    EXPECT_EQ(footprintBytes(Heat3DVariant::StorageOptimized, cfg),
              plane + 2 * row);
}

TEST(Heat3DKernel, UovMachineryAgreesWithHardcodedChoices)
{
    // The kernel hard-codes UOV (2,0,0) and the skew u=x+t, w=y+t;
    // the library derives both.
    Stencil s = stencils::heat3D();
    SearchResult r =
        BranchBoundSearch(s, SearchObjective::ShortestVector).run();
    EXPECT_EQ(r.best_uov, (IVec{2, 0, 0}));

    IMatrix skew = skewToNonNegative(s);
    EXPECT_EQ(skew, IMatrix({{1, 0, 0}, {1, 1, 0}, {1, 0, 1}}));
    EXPECT_TRUE(tilingLegal(skew, s));
    EXPECT_FALSE(tilingLegal(IMatrix::identity(3), s));
}

TEST(Heat3DKernel, SimulatedRunMatchesNative)
{
    Heat3DConfig cfg;
    cfg.nx = 24;
    cfg.ny = 24;
    cfg.steps = 4;
    double native = runNative(Heat3DVariant::OvTiled, cfg);
    VirtualArena arena;
    MemorySystem ms(MachineConfig::alpha21164());
    SimMem sim{&ms};
    EXPECT_EQ(runHeat3D(Heat3DVariant::OvTiled, cfg, sim, arena),
              native);
    EXPECT_GT(ms.accesses(), 0u);
}

TEST(Heat3DKernel, OvUsesFarLessMemoryThanNatural)
{
    Heat3DConfig cfg;
    cfg.nx = 16;
    cfg.ny = 16;
    cfg.steps = 64;
    EXPECT_GT(footprintBytes(Heat3DVariant::Natural, cfg),
              30 * footprintBytes(Heat3DVariant::Ov, cfg));
}

TEST(Heat3DKernel, RejectsDegenerate)
{
    Heat3DConfig cfg;
    cfg.nx = 2;
    VirtualArena arena;
    NativeMem mem;
    EXPECT_THROW(runHeat3D(Heat3DVariant::Natural, cfg, mem, arena),
                 UovUserError);
}

} // namespace
} // namespace uov
