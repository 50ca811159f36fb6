/**
 * @file
 * Tests for the schedule-specific storage baseline: its OVs really
 * are shorter than the UOV, really work under their schedule, and
 * really break under others -- the paper's storage/flexibility
 * trade-off, quantified.
 */

#include <gtest/gtest.h>

#include "core/search.h"
#include "core/uov.h"
#include "schedule/executor.h"
#include "schedule/schedule_specific.h"

namespace uov {
namespace {

TEST(ScheduleSpecific, NeverWorseThanUov)
{
    for (const Stencil &s :
         {stencils::simpleExample(), stencils::fivePoint(),
          stencils::threeVector()}) {
        SearchResult uov =
            BranchBoundSearch(s, SearchObjective::ShortestVector).run();
        int64_t k = 1 + s.maxAbsCoord();
        IVec h{k, 1};
        ScheduleSpecificResult spec = bestOvForLinearSchedule(h, s);
        EXPECT_LE(spec.objective, uov.best_objective) << s.str();
        EXPECT_TRUE(ovLegalForLinearSchedule(h, spec.ov, s)) << s.str();
    }
}

TEST(ScheduleSpecific, StrictlyBeatsUovOnStorage)
{
    // Under the storage objective, wavefront schedules admit
    // "elongated" OVs like (0,k) whose projection is one row: far
    // fewer cells than the UOV's anti-diagonal -- and not universal.
    Stencil s = stencils::simpleExample();
    Polyhedron isg = Polyhedron::box(IVec{0, 0}, IVec{64, 1024});
    ScheduleSpecificResult spec =
        bestOvForLinearSchedule(IVec{2, 1}, s, isg);
    SearchOptions sopts;
    sopts.isg = isg;
    SearchResult uov =
        BranchBoundSearch(s, SearchObjective::BoundedStorage, sopts)
            .run();
    EXPECT_LT(spec.objective, uov.best_objective);
    EXPECT_FALSE(UovOracle(s).isUov(spec.ov));
}

TEST(ScheduleSpecific, ResultWorksUnderItsScheduleOnly)
{
    // ov = (0,4) is legal for h=(2,1) (every consumer is at most 3
    // wavefronts away) but ties with the (1,1) consumer under
    // h=(3,1), where the lexicographic tie-break runs the overwriter
    // first: a clobber.
    Stencil s = stencils::simpleExample();
    IVec ov{0, 4};
    ASSERT_TRUE(ovLegalForLinearSchedule(IVec{2, 1}, ov, s));
    ASSERT_FALSE(ovLegalForLinearSchedule(IVec{3, 1}, ov, s));

    StencilComputation comp(s);
    IVec lo{0, 0}, hi{8, 8};
    ExecutionResult good = runWithOvStorage(
        comp, AffineSchedule({IVec{2, 1}}), lo, hi, ov);
    EXPECT_TRUE(good.correct());
    EXPECT_EQ(good.clobbers, 0u);

    ExecutionResult bad = runWithOvStorage(
        comp, AffineSchedule({IVec{3, 1}}), lo, hi, ov);
    EXPECT_FALSE(bad.correct());

    // While the UOV survives both.
    SearchResult uov =
        BranchBoundSearch(s, SearchObjective::ShortestVector).run();
    for (const IVec &hh : {IVec{2, 1}, IVec{3, 1}}) {
        ExecutionResult r = runWithOvStorage(
            comp, AffineSchedule({hh}), lo, hi, uov.best_uov);
        EXPECT_TRUE(r.correct()) << hh.str();
    }
}

TEST(ScheduleSpecific, StorageObjectiveOverIsg)
{
    Stencil s = stencils::fivePoint();
    Polyhedron isg = Polyhedron::box(IVec{0, 0}, IVec{32, 256});
    IVec h{3, 1};
    ScheduleSpecificResult spec =
        bestOvForLinearSchedule(h, s, isg);
    SearchOptions sopts;
    sopts.isg = isg;
    SearchResult uov =
        BranchBoundSearch(s, SearchObjective::BoundedStorage, sopts)
            .run();
    EXPECT_LE(spec.objective, uov.best_objective);
    EXPECT_GT(spec.objective, 0);
}

TEST(ScheduleSpecific, RejectsIllegalSchedule)
{
    EXPECT_THROW(bestOvForLinearSchedule(IVec{1, 1}, stencils::fivePoint()),
                 UovUserError);
}

TEST(ScheduleSpecific, SingleDependenceStencil)
{
    // {(1,0)} under h=(1,2): ov=(0,1) should be picked (h.(1,0)=1 <
    // h.(0,1)=2) -- the Figure 1(c) storage-optimized pattern.
    Stencil s({IVec{1, 0}});
    ScheduleSpecificResult spec =
        bestOvForLinearSchedule(IVec{1, 2}, s);
    EXPECT_EQ(spec.objective, 1);
    EXPECT_TRUE(ovLegalForLinearSchedule(IVec{1, 2}, spec.ov, s));
}

} // namespace
} // namespace uov
