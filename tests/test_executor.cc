/**
 * @file
 * Executor tests: the empirical proof of the paper's central claim.
 *
 * A UOV-mapped array must be correct under EVERY legal schedule; a
 * shorter, non-universal OV is correct only under schedules compatible
 * with it (Figure 1(c)'s storage-optimized code is the motivating
 * case).  These tests sweep the schedule family and assert exactly
 * that.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/uov.h"
#include "schedule/builder.h"
#include "schedule/executor.h"
#include "schedule/legality.h"

namespace uov {
namespace {

/** The legal schedule family for a stencil over 2-D boxes. */
std::vector<std::unique_ptr<Schedule>>
legalSchedules2D(const Stencil &stencil)
{
    std::vector<std::unique_ptr<Schedule>> out;
    out.push_back(std::make_unique<TiledSchedule>(IMatrix::identity(2)));
    if (permutationLegal({1, 0}, stencil))
        out.push_back(ScheduleBuilder(2).reorder({1, 0}).buildSchedule());
    if (tilingLegal(IMatrix::identity(2), stencil)) {
        out.push_back(std::make_unique<TiledSchedule>(
            TiledSchedule(IMatrix::identity(2), {{3, 3}})));
        out.push_back(std::make_unique<TiledSchedule>(
            TiledSchedule(IMatrix::identity(2), {{2, 5}})));
    }
    // Skewed tiling (always constructible when time advances).
    bool time_advances = true;
    for (const auto &v : stencil.deps())
        if (v[0] <= 0)
            time_advances = false;
    if (time_advances) {
        IMatrix skew = skewToNonNegative(stencil);
        out.push_back(std::make_unique<TiledSchedule>(
            TiledSchedule(skew, {{3, 4}}, "skew-tile")));
    }
    // A legal wavefront: h = (K, 1) with K large enough.
    int64_t k = 1 + stencil.maxAbsCoord();
    if (wavefrontLegal(IVec{k, 1}, stencil))
        out.push_back(std::make_unique<AffineSchedule>(
            std::vector<IVec>{IVec{k, 1}}));
    // Two-level hierarchy and a 2-D affine time mapping.
    if (time_advances) {
        IMatrix skew = skewToNonNegative(stencil);
        out.push_back(std::make_unique<TiledSchedule>(
            TiledSchedule(skew, {{4, 6}, {2, 3}}, "hier")));
    }
    {
        AffineSchedule affine({IVec{1, 0}, IVec{0, 1}});
        bool legal = true;
        for (const auto &v : stencil.deps()) {
            auto t = affine.timeOf(v);
            if (!(t > std::vector<int64_t>(t.size(), 0)))
                legal = false;
        }
        if (legal)
            out.push_back(std::make_unique<AffineSchedule>(
                std::vector<IVec>{IVec{1, 0}, IVec{0, 1}}));
    }
    for (uint64_t seed : {1u, 2u, 3u})
        out.push_back(std::make_unique<RandomTopoSchedule>(stencil, seed));
    return out;
}

TEST(Executor, ReferenceDeterministic)
{
    StencilComputation comp(stencils::simpleExample());
    auto a = computeReference(comp, IVec{0, 0}, IVec{5, 5});
    auto b = computeReference(comp, IVec{0, 0}, IVec{5, 5});
    EXPECT_EQ(a.at(IVec{5, 5}), b.at(IVec{5, 5}));
    EXPECT_EQ(a.at(IVec{3, 2}), b.at(IVec{3, 2}));
}

TEST(Executor, ExpandedStorageCorrectUnderAllSchedules)
{
    for (const Stencil &stencil :
         {stencils::simpleExample(), stencils::fivePoint()}) {
        StencilComputation comp(stencil);
        for (const auto &sched : legalSchedules2D(stencil)) {
            ExecutionResult r = runWithExpandedStorage(
                comp, *sched, IVec{0, 0}, IVec{8, 8});
            EXPECT_TRUE(r.correct())
                << stencil.str() << " under " << sched->name();
            EXPECT_EQ(r.points, 81u);
        }
    }
}

TEST(Executor, UovCorrectUnderEveryLegalSchedule)
{
    // THE claim (Section 3.1): OV-mapped storage with a universal OV
    // introduces no schedule restriction.
    struct Case
    {
        Stencil stencil;
        IVec uov;
    };
    std::vector<Case> cases = {
        {stencils::simpleExample(), IVec{1, 1}},
        {stencils::simpleExample(), IVec{2, 2}},   // non-prime UOV
        {stencils::fivePoint(), IVec{2, 0}},       // Figure 5
        {stencils::fivePoint(), IVec{5, 0}},       // initial UOV
        {stencils::threeVector(), stencils::threeVector().initialUov()},
    };
    for (const auto &c : cases) {
        UovOracle oracle(c.stencil);
        ASSERT_TRUE(oracle.isUov(c.uov)) << c.uov.str();
        StencilComputation comp(c.stencil);
        for (const auto &sched : legalSchedules2D(c.stencil)) {
            for (ModLayout layout :
                 {ModLayout::Interleaved, ModLayout::Blocked}) {
                ExecutionResult r = runWithOvStorage(
                    comp, *sched, IVec{0, 0}, IVec{8, 8}, c.uov, layout);
                EXPECT_TRUE(r.correct())
                    << c.stencil.str() << " ov=" << c.uov.str()
                    << " under " << sched->name() << ": "
                    << r.mismatches << " mismatches";
                EXPECT_EQ(r.clobbers, 0u)
                    << c.stencil.str() << " ov=" << c.uov.str()
                    << " under " << sched->name();
            }
        }
    }
}

TEST(Executor, ChecksumIdenticalAcrossSchedules)
{
    Stencil stencil = stencils::fivePoint();
    StencilComputation comp(stencil);
    auto scheds = legalSchedules2D(stencil);
    ExecutionResult first = runWithOvStorage(
        comp, *scheds[0], IVec{0, 0}, IVec{7, 9}, IVec{2, 0});
    for (size_t i = 1; i < scheds.size(); ++i) {
        ExecutionResult r = runWithOvStorage(
            comp, *scheds[i], IVec{0, 0}, IVec{7, 9}, IVec{2, 0});
        EXPECT_EQ(r.checksum, first.checksum) << scheds[i]->name();
    }
}

TEST(Executor, NonUniversalOvIsScheduleDependent)
{
    // Stencil {(1,0)}: ov = (0,1) is NOT universal, yet it is exactly
    // right for the column-major schedule (the storage-optimized code
    // of Figure 1(c) is this phenomenon).  It must fail under the
    // row-major schedule.
    Stencil stencil({IVec{1, 0}});
    UovOracle oracle(stencil);
    IVec ov{0, 1};
    ASSERT_FALSE(oracle.isUov(ov));

    StencilComputation comp(stencil);
    // Compatible schedule: correct.
    ExecutionResult good = runWithOvStorage(
        comp, *ScheduleBuilder(2).reorder({1, 0}).buildSchedule(),
        IVec{0, 0}, IVec{6, 6}, ov);
    EXPECT_TRUE(good.correct());
    EXPECT_EQ(good.clobbers, 0u);

    // Original row-major schedule: cells clobbered, values wrong.
    ExecutionResult bad = runWithOvStorage(
        comp, TiledSchedule(IMatrix::identity(2)), IVec{0, 0},
        IVec{6, 6}, ov);
    EXPECT_FALSE(bad.correct());
    EXPECT_GT(bad.clobbers, 0u);
}

TEST(Executor, TooShortOvFailsSomewhere)
{
    // (1,0) is shorter than the UOV (1,1) of the simple example; some
    // legal schedule must break it.
    Stencil stencil = stencils::simpleExample();
    ASSERT_FALSE(UovOracle(stencil).isUov(IVec{1, 0}));
    StencilComputation comp(stencil);
    bool failed_somewhere = false;
    for (const auto &sched : legalSchedules2D(stencil)) {
        ExecutionResult r = runWithOvStorage(
            comp, *sched, IVec{0, 0}, IVec{8, 8}, IVec{1, 0});
        if (!r.correct())
            failed_somewhere = true;
    }
    EXPECT_TRUE(failed_somewhere);
}

TEST(Executor, ClobberDiagnosticsPinpointCell)
{
    Stencil stencil({IVec{1, 0}});
    StencilComputation comp(stencil);
    StorageMapping sm = StorageMapping::create(
        IVec{0, 1}, Polyhedron::box(IVec{0, 0}, IVec{3, 3}));
    CheckedOVArray<uint64_t> store(sm);
    // Manual mini-run that forces one clobber.
    store.write(IVec{0, 0}, 1);
    store.write(IVec{0, 1}, 2); // same cell as (0,0)+ov
    store.read(IVec{1, 0}, IVec{0, 0});
    ASSERT_EQ(store.violations().size(), 1u);
    EXPECT_EQ(store.violations()[0].actual_writer, (IVec{0, 1}));
}

TEST(Executor, BoundaryFunctionIsUsed)
{
    StencilComputation constant_boundary(
        stencils::simpleExample(), [](const IVec &) { return 7ull; });
    StencilComputation default_boundary(stencils::simpleExample());
    auto a = computeReference(constant_boundary, IVec{0, 0}, IVec{4, 4});
    auto b = computeReference(default_boundary, IVec{0, 0}, IVec{4, 4});
    EXPECT_NE(a.at(IVec{4, 4}), b.at(IVec{4, 4}));
}

TEST(Executor, ThreeDimensionalUovRun)
{
    Stencil stencil = stencils::heat3D();
    StencilComputation comp(stencil);
    ASSERT_TRUE(UovOracle(stencil).isUov(IVec{2, 0, 0}));

    std::vector<std::unique_ptr<Schedule>> scheds;
    scheds.push_back(std::make_unique<TiledSchedule>(IMatrix::identity(3)));
    IMatrix skew = skewToNonNegative(stencil);
    scheds.push_back(std::make_unique<TiledSchedule>(
        TiledSchedule(skew, {{2, 3, 3}}, "skew-tile-3d")));
    scheds.push_back(
        std::make_unique<RandomTopoSchedule>(stencil, 5));

    for (const auto &sched : scheds) {
        ExecutionResult r = runWithOvStorage(
            comp, *sched, IVec{0, 0, 0}, IVec{5, 4, 4}, IVec{2, 0, 0});
        EXPECT_TRUE(r.correct()) << sched->name();
        EXPECT_EQ(r.clobbers, 0u) << sched->name();
    }
}

} // namespace
} // namespace uov
