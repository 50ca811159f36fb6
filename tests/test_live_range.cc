/**
 * @file
 * Live-range analysis tests: the lower-bound property against every
 * storage mapping, tightness against the paper's storage-optimized
 * codes, and schedule sensitivity.
 */

#include <gtest/gtest.h>

#include "analysis/live_range.h"
#include "core/search.h"
#include "mapping/storage_mapping.h"
#include "schedule/builder.h"
#include "schedule/legality.h"
#include "schedule/schedule_specific.h"

namespace uov {
namespace {

TEST(LiveRange, SimpleExampleUnderLexMatchesStorageOptimized)
{
    // Figure 1(c) uses m+2 cells; the true lower bound under the
    // original schedule is about one row plus the diagonal carry.
    int64_t n = 12, m = 9;
    Stencil s = stencils::simpleExample();
    LiveRangeResult r = maxLiveValues(
        TiledSchedule(IMatrix::identity(2)), IVec{1, 1}, IVec{n, m}, s);
    EXPECT_GE(r.max_live, m);
    EXPECT_LE(r.max_live, m + 2);
    EXPECT_EQ(r.points, static_cast<uint64_t>(n * m));
    EXPECT_GT(r.avg_live, 0.0);
}

TEST(LiveRange, FivePointUnderLexMatchesStorageOptimized)
{
    // Table 1's L+3: the in-place row plus three temporaries.
    int64_t steps = 8, len = 32;
    Stencil s = stencils::fivePoint();
    LiveRangeResult r =
        maxLiveValues(TiledSchedule(IMatrix::identity(2)), IVec{1, 0},
                      IVec{steps, len - 1}, s);
    EXPECT_GE(r.max_live, len - 2);
    EXPECT_LE(r.max_live, len + 3);
}

TEST(LiveRange, LowerBoundsEveryMapping)
{
    // cells(any mapping) >= max-live under any legal schedule.
    Stencil s = stencils::simpleExample();
    IVec lo{1, 1}, hi{14, 14};
    Polyhedron isg = Polyhedron::box(lo, hi);

    SearchResult uov =
        BranchBoundSearch(s, SearchObjective::ShortestVector).run();
    StorageMapping sm = StorageMapping::create(uov.best_uov, isg);

    std::vector<std::unique_ptr<Schedule>> scheds;
    scheds.push_back(std::make_unique<TiledSchedule>(IMatrix::identity(2)));
    scheds.push_back(ScheduleBuilder(2).reorder({1, 0}).buildSchedule());
    scheds.push_back(
        std::make_unique<AffineSchedule>(std::vector<IVec>{IVec{2, 1}}));
    scheds.push_back(std::make_unique<TiledSchedule>(
        TiledSchedule(IMatrix::identity(2), {{4, 4}})));
    scheds.push_back(std::make_unique<RandomTopoSchedule>(s, 3));

    for (const auto &sched : scheds) {
        LiveRangeResult r = maxLiveValues(*sched, lo, hi, s);
        EXPECT_GE(sm.cellCount(), r.max_live) << sched->name();
    }
}

TEST(LiveRange, ScheduleSpecificOvSitsNearItsBound)
{
    // The schedule-given optimum cannot beat the live-value bound of
    // its own schedule, and lands within a small factor of it.
    Stencil s = stencils::simpleExample();
    IVec lo{0, 0}, hi{15, 15};
    IVec h{2, 1};
    ScheduleSpecificResult spec =
        bestOvForLinearSchedule(h, s, Polyhedron::box(lo, hi));
    LiveRangeResult bound =
        maxLiveValues(AffineSchedule({h}), lo, hi, s);
    EXPECT_GE(spec.objective, bound.max_live);
    EXPECT_LE(spec.objective, 3 * bound.max_live);
}

TEST(LiveRange, WavefrontNeedsMoreLiveThanLexHere)
{
    // Live demand depends on the schedule: the diagonal wavefront of
    // the simple example keeps more values in flight than row-major.
    Stencil s = stencils::simpleExample();
    IVec lo{1, 1}, hi{16, 16};
    int64_t lex =
        maxLiveValues(TiledSchedule(IMatrix::identity(2)), lo, hi, s)
            .max_live;
    int64_t wave =
        maxLiveValues(AffineSchedule({IVec{1, 1}}), lo, hi, s)
            .max_live;
    EXPECT_GT(wave, lex);
}

TEST(LiveRange, NoConsumersMeansOneLiveValue)
{
    // A stencil whose only dependence leaves the tiny box: every
    // value dies immediately.
    Stencil s({IVec{5, 0}});
    LiveRangeResult r = maxLiveValues(
        TiledSchedule(IMatrix::identity(2)), IVec{0, 0}, IVec{3, 3}, s);
    EXPECT_EQ(r.max_live, 1);
}

} // namespace
} // namespace uov
