/**
 * @file
 * Parallel wavefront executor tests: UOV storage is race-free and
 * bit-exact across thread counts; illegal wavefronts and too-short
 * OVs are caught.
 */

#include <gtest/gtest.h>

#include "core/uov.h"
#include "schedule/parallel_executor.h"

namespace uov {
namespace {

TEST(ParallelExecutor, UovCorrectAcrossThreadCounts)
{
    struct Case
    {
        Stencil stencil;
        IVec h;
        IVec uov;
    };
    std::vector<Case> cases = {
        {stencils::simpleExample(), IVec{2, 1}, IVec{1, 1}},
        {stencils::fivePoint(), IVec{3, 1}, IVec{2, 0}},
        {stencils::fivePoint(), IVec{5, 1}, IVec{5, 0}},
    };
    for (const auto &c : cases) {
        ASSERT_TRUE(UovOracle(c.stencil).isUov(c.uov));
        StencilComputation comp(c.stencil);
        for (unsigned threads : {1u, 2u, 4u}) {
            ParallelExecutionResult r = runParallelWavefront(
                comp, IVec{0, 0}, IVec{15, 23}, c.h, c.uov, threads);
            EXPECT_TRUE(r.correct())
                << c.stencil.str() << " h=" << c.h.str()
                << " threads=" << threads << " mismatches="
                << r.mismatches;
            EXPECT_EQ(r.points, 16u * 24u);
            EXPECT_EQ(r.threads, threads);
            EXPECT_GT(r.waves, 0);
        }
    }
}

TEST(ParallelExecutor, MatchesSequentialChecksum)
{
    Stencil s = stencils::fivePoint();
    StencilComputation comp(s);
    ExecutionResult seq = runWithOvStorage(
        comp, AffineSchedule({IVec{3, 1}}), IVec{0, 0}, IVec{11, 11},
        IVec{2, 0});
    ParallelExecutionResult par = runParallelWavefront(
        comp, IVec{0, 0}, IVec{11, 11}, IVec{3, 1}, IVec{2, 0}, 4);
    EXPECT_TRUE(seq.correct());
    EXPECT_TRUE(par.correct());
    EXPECT_EQ(seq.points, par.points);
}

TEST(ParallelExecutor, IllegalWavefrontRejected)
{
    StencilComputation comp(stencils::fivePoint());
    EXPECT_THROW(runParallelWavefront(comp, IVec{0, 0}, IVec{7, 7},
                                      IVec{1, 1}, IVec{2, 0}, 2),
                 UovUserError);
}

TEST(ParallelExecutor, ShortOvProducesMismatches)
{
    // (1,0) is not a UOV for the simple example; the wavefront order
    // clobbers it regardless of thread count.
    Stencil s = stencils::simpleExample();
    StencilComputation comp(s);
    ParallelExecutionResult r = runParallelWavefront(
        comp, IVec{0, 0}, IVec{11, 11}, IVec{2, 1}, IVec{1, 0}, 2);
    EXPECT_FALSE(r.correct());
}

TEST(ParallelExecutor, BlockedLayoutAlsoSafe)
{
    StencilComputation comp(stencils::fivePoint());
    ParallelExecutionResult r = runParallelWavefront(
        comp, IVec{0, 0}, IVec{10, 20}, IVec{3, 1}, IVec{2, 0}, 3,
        ModLayout::Blocked);
    EXPECT_TRUE(r.correct());
}

} // namespace
} // namespace uov
