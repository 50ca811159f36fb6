/**
 * @file
 * Schedule-specific OV legality tests: the algebraic linear-schedule
 * rule, the empirical oracle, agreement between them, agreement with
 * the executor's clobber detection, and the UOV universality property
 * expressed through this lens.
 */

#include <gtest/gtest.h>

#include "core/uov.h"
#include "schedule/builder.h"
#include "schedule/executor.h"
#include "schedule/legality.h"
#include "schedule/ov_legality.h"

namespace uov {
namespace {

TEST(OvLegalityLinear, UovSafeForEveryLegalWavefront)
{
    Stencil s = stencils::simpleExample();
    IVec uov{1, 1};
    ASSERT_TRUE(UovOracle(s).isUov(uov));
    for (int64_t a = 1; a <= 4; ++a) {
        for (int64_t b = 1; b <= 4; ++b) {
            IVec h{a, b};
            if (!wavefrontLegal(h, s))
                continue;
            EXPECT_TRUE(ovLegalForLinearSchedule(h, uov, s)) << h.str();
        }
    }
}

TEST(OvLegalityLinear, ShortOvSafeOnlyForAlignedSchedules)
{
    // Stencil {(1,0)}: ov=(0,1) is not universal.  sigma = h.q with
    // h=(1,0) ties all points in a column; h=(K,1)-style schedules
    // that advance j fast make it safe only if h.(1,0) < h.(0,1).
    Stencil s({IVec{1, 0}});
    IVec ov{0, 1};
    ASSERT_FALSE(UovOracle(s).isUov(ov));

    // h = (2,1): h.v = 2 >= h.ov = 1 -> unsafe.
    EXPECT_FALSE(ovLegalForLinearSchedule(IVec{2, 1}, ov, s));
    // h = (1,2): h.v = 1 < h.ov = 2 -> safe (column-major-like).
    EXPECT_TRUE(ovLegalForLinearSchedule(IVec{1, 2}, ov, s));
}

TEST(OvLegalityLinear, OverwriterMayBeConsumer)
{
    // ov equal to a dependence: legal because the read happens before
    // the write within the iteration (Figure 1's UOV (1,1) is a
    // dependence).
    Stencil s = stencils::simpleExample();
    EXPECT_TRUE(ovLegalForLinearSchedule(IVec{1, 1}, IVec{1, 1}, s));
    // But an equal-level *different* consumer is unsafe.
    Stencil two({IVec{1, 0}, IVec{0, 1}});
    // h=(1,1): h.(1,0) == h.(0,1) == h.ov(0,1)? ov=(0,1): consumer
    // (1,0) has h.v = 1 == h.ov = 1 and v != ov -> unsafe.
    EXPECT_FALSE(ovLegalForLinearSchedule(IVec{1, 1}, IVec{0, 1}, two));
}

TEST(OvLegalityLinear, RejectsIllegalScheduleVector)
{
    EXPECT_THROW(ovLegalForLinearSchedule(IVec{1, 1}, IVec{2, 0},
                                          stencils::fivePoint()),
                 UovUserError);
}

TEST(OvLegalityEmpirical, Figure1cStorageOptimizedPattern)
{
    // Figure 1(c)'s in-place row is, in OV terms, ov = (1,0) on the
    // simple-example stencil: each iteration overwrites the value one
    // row up.  That is legal only for the original row-major
    // schedule... in fact not even for it: (i-1,j) is still needed by
    // (i, j+1).  The truly compatible pattern is ov = (1,0) with the
    // *column*-major schedule?  No: consumer (i-1,j)+(0,1) follows.
    // The executor already showed ov=(1,0) fails; the oracle agrees
    // for both canonical orders.
    Stencil s = stencils::simpleExample();
    IVec lo{0, 0}, hi{6, 6};
    TiledSchedule row_major(IMatrix::identity(2));
    auto col_major = ScheduleBuilder(2).reorder({1, 0}).buildSchedule();
    EXPECT_FALSE(ovLegalForSchedule(row_major, lo, hi, IVec{1, 0}, s));
    EXPECT_FALSE(ovLegalForSchedule(*col_major, lo, hi, IVec{1, 0}, s));
    // The UOV is safe under both.
    EXPECT_TRUE(ovLegalForSchedule(row_major, lo, hi, IVec{1, 1}, s));
    EXPECT_TRUE(ovLegalForSchedule(*col_major, lo, hi, IVec{1, 1}, s));
}

TEST(OvLegalityEmpirical, ScheduleDependentOvMatchesExecutor)
{
    // Stencil {(1,0)}, ov=(0,1): safe column-major, clobbers
    // row-major -- the oracle and the executor must agree.
    Stencil s({IVec{1, 0}});
    IVec ov{0, 1};
    IVec lo{0, 0}, hi{6, 6};
    StencilComputation comp(s);

    TiledSchedule row_major(IMatrix::identity(2));
    auto col_major = ScheduleBuilder(2).reorder({1, 0}).buildSchedule();

    bool oracle_row = ovLegalForSchedule(row_major, lo, hi, ov, s);
    bool oracle_col = ovLegalForSchedule(*col_major, lo, hi, ov, s);
    EXPECT_FALSE(oracle_row);
    EXPECT_TRUE(oracle_col);

    EXPECT_EQ(runWithOvStorage(comp, row_major, lo, hi, ov).correct(),
              oracle_row);
    EXPECT_EQ(runWithOvStorage(comp, *col_major, lo, hi, ov).correct(),
              oracle_col);
}

TEST(OvLegalityEmpirical, AgreesWithLinearRuleOnWavefronts)
{
    Stencil s = stencils::fivePoint();
    IVec lo{0, 0}, hi{8, 8};
    for (const IVec &h : {IVec{3, 1}, IVec{4, 1}, IVec{5, 2}}) {
        ASSERT_TRUE(wavefrontLegal(h, s)) << h.str();
        for (const IVec &ov :
             {IVec{2, 0}, IVec{1, 0}, IVec{3, 1}, IVec{1, 2}}) {
            bool algebraic = ovLegalForLinearSchedule(h, ov, s);
            bool empirical = ovLegalForSchedule(
                AffineSchedule({h}), lo, hi, ov, s);
            // The algebraic rule is conservative about ties; whenever
            // it accepts, the empirical order must too.
            if (algebraic) {
                EXPECT_TRUE(empirical) << h.str() << " " << ov.str();
            }
        }
    }
}

TEST(OvLegalityEmpirical, UovSafeUnderRandomSchedules)
{
    Stencil s = stencils::fivePoint();
    IVec lo{0, 0}, hi{7, 9};
    for (uint64_t seed = 0; seed < 8; ++seed) {
        RandomTopoSchedule sched(s, seed);
        EXPECT_TRUE(
            ovLegalForSchedule(sched, lo, hi, IVec{2, 0}, s))
            << seed;
    }
}

TEST(OvLegalityEmpirical, NonUovFailsSomeRandomSchedule)
{
    // A non-universal short OV must be rejected by some random
    // topological order.
    Stencil s = stencils::simpleExample();
    IVec lo{0, 0}, hi{7, 7};
    bool rejected_somewhere = false;
    for (uint64_t seed = 0; seed < 16 && !rejected_somewhere; ++seed) {
        if (!ovLegalForSchedule(RandomTopoSchedule(s, seed), lo, hi,
                                IVec{1, 0}, s))
            rejected_somewhere = true;
    }
    EXPECT_TRUE(rejected_somewhere);
}

} // namespace
} // namespace uov
