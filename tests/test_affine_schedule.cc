/**
 * @file
 * Tests for multi-dimensional affine schedules: enumeration order,
 * legality, the r-dimensional OV-legality rule vs the empirical
 * oracle, and UOV correctness under affine schedules.  One-row
 * (wavefront) visit orders are pinned in test_schedule.cc.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/uov.h"
#include "schedule/executor.h"
#include "schedule/legality.h"
#include "schedule/ov_legality.h"

namespace uov {
namespace {

TEST(AffineSchedule, CompleteEnumeration)
{
    AffineSchedule s({IVec{2, 1}, IVec{0, 1}});
    std::set<std::vector<int64_t>> seen;
    uint64_t count = 0;
    s.forEach(IVec{0, 0}, IVec{5, 7}, [&](const IVec &q) {
        ++count;
        EXPECT_TRUE(seen.insert(q.coords()).second);
    });
    EXPECT_EQ(count, 6u * 8u);
}

TEST(AffineSchedule, OrderFollowsTimeTuples)
{
    AffineSchedule s({IVec{1, 1}, IVec{0, 1}});
    std::vector<IVec> order;
    s.forEach(IVec{0, 0}, IVec{1, 1},
              [&](const IVec &q) { order.push_back(q); });
    // times: (0,0)->(0,0), (0,1)->(1,1), (1,0)->(1,0), (1,1)->(2,1).
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], (IVec{0, 0}));
    EXPECT_EQ(order[1], (IVec{1, 0}));
    EXPECT_EQ(order[2], (IVec{0, 1}));
    EXPECT_EQ(order[3], (IVec{1, 1}));
}

TEST(AffineSchedule, RespectsStencilWhenLegal)
{
    Stencil five = stencils::fivePoint();
    // time row (1,0) alone ties whole rows; adding (0,1) orders them.
    AffineSchedule legal({IVec{1, 0}, IVec{0, 1}});
    EXPECT_TRUE(scheduleRespectsStencil(legal, IVec{0, 0}, IVec{6, 6},
                                        five));
    // Reversed second level: (1,0),(0,-1) -- still legal for the
    // 5-point stencil?  time of (1,k) = (1, -k): first component
    // positive, lex-positive: yes.
    AffineSchedule reversed({IVec{1, 0}, IVec{0, -1}});
    EXPECT_TRUE(scheduleRespectsStencil(reversed, IVec{0, 0},
                                        IVec{6, 6}, five));
}

TEST(AffineSchedule, OvRuleMatchesOneDimensionalRule)
{
    Stencil s = stencils::simpleExample();
    for (const IVec &h : {IVec{2, 1}, IVec{1, 2}, IVec{3, 1}}) {
        AffineSchedule affine({h});
        for (const IVec &ov :
             {IVec{1, 1}, IVec{0, 4}, IVec{1, 0}, IVec{2, 2}}) {
            EXPECT_EQ(ovLegalForAffineSchedule(affine, ov, s),
                      ovLegalForLinearSchedule(h, ov, s))
                << h.str() << " " << ov.str();
        }
    }
}

TEST(AffineSchedule, SecondLevelBreaksTiesSafely)
{
    // Stencil {(1,0),(0,1),(1,1)} with schedule ((1,1), (0,1)):
    // ov = (0,2): time (2,2); deps' times (1,0),(1,1),(2,1): all
    // lex-less -> safe under THIS schedule, though not universal.
    Stencil s = stencils::simpleExample();
    AffineSchedule sched({IVec{1, 1}, IVec{0, 1}}, "diag-then-j");
    IVec ov{0, 2};
    ASSERT_FALSE(UovOracle(s).isUov(ov));
    EXPECT_TRUE(ovLegalForAffineSchedule(sched, ov, s));
    EXPECT_TRUE(ovLegalForSchedule(sched, IVec{0, 0}, IVec{7, 7}, ov,
                                   s));
    // The executor agrees.
    StencilComputation comp(s);
    ExecutionResult r =
        runWithOvStorage(comp, sched, IVec{0, 0}, IVec{7, 7}, ov);
    EXPECT_TRUE(r.correct());

    // But the same ov under the transposed schedule clobbers.
    AffineSchedule other({IVec{1, 1}, IVec{1, 0}}, "diag-then-i");
    EXPECT_FALSE(ovLegalForAffineSchedule(other, ov, s));
    ExecutionResult bad =
        runWithOvStorage(comp, other, IVec{0, 0}, IVec{7, 7}, ov);
    EXPECT_FALSE(bad.correct());
}

TEST(AffineSchedule, UovSafeUnderAffineFamily)
{
    Stencil five = stencils::fivePoint();
    StencilComputation comp(five);
    for (const auto &rows :
         {std::vector<IVec>{IVec{1, 0}, IVec{0, 1}},
          std::vector<IVec>{IVec{1, 0}, IVec{0, -1}},
          std::vector<IVec>{IVec{3, 1}},
          std::vector<IVec>{IVec{4, -1}, IVec{0, 1}}}) {
        AffineSchedule sched(rows);
        ASSERT_TRUE(scheduleRespectsStencil(sched, IVec{0, 0},
                                            IVec{7, 7}, five))
            << sched.name();
        ExecutionResult r = runWithOvStorage(
            comp, sched, IVec{0, 0}, IVec{7, 7}, IVec{2, 0});
        EXPECT_TRUE(r.correct()) << sched.name();
        EXPECT_EQ(r.clobbers, 0u) << sched.name();
    }
}

TEST(AffineSchedule, IllegalScheduleRejectedByOvRule)
{
    Stencil five = stencils::fivePoint();
    AffineSchedule bad({IVec{0, 1}}); // ties (1,-2) vs ... illegal
    EXPECT_THROW(ovLegalForAffineSchedule(bad, IVec{2, 0}, five),
                 UovUserError);
    EXPECT_THROW(AffineSchedule({}), UovUserError);
}

} // namespace
} // namespace uov
