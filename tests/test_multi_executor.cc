/**
 * @file
 * Empirical validation of multi-statement storage plans: run the
 * two-statement PSM-style recurrence with per-array OV storage (as
 * chosen by planMultiStatement) under the legal schedule family,
 * checking every value against fully expanded reference arrays and
 * counting clobbers per array.
 */

#include <gtest/gtest.h>

#include <memory>

#include "analysis/multi.h"
#include "mapping/expanded_array.h"
#include "mapping/ov_array.h"
#include "schedule/builder.h"

namespace uov {
namespace {

/** The two-statement nest: E then D (see test_multi.cc). */
LoopNest
psmTwoStatementNest(int64_t n)
{
    LoopNest nest("psm2", IVec{1, 1}, IVec{n, n});
    Statement e;
    e.name = "E";
    e.write = uniformAccess("E", IVec{0, 0});
    e.reads = {uniformAccess("E", IVec{0, -1}),
               uniformAccess("D", IVec{0, -1})};
    nest.addStatement(e);
    Statement d;
    d.name = "D";
    d.write = uniformAccess("D", IVec{0, 0});
    d.reads = {uniformAccess("D", IVec{-1, -1}),
               uniformAccess("D", IVec{-1, 0}),
               uniformAccess("E", IVec{0, 0})};
    nest.addStatement(d);
    return nest;
}

uint64_t
mix(uint64_t a, uint64_t b)
{
    uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    return z ^ (z >> 27);
}

uint64_t
boundary(const IVec &p)
{
    return mix(0x1234, static_cast<uint64_t>(p[0] * 131 + p[1]));
}

struct MultiRun
{
    uint64_t mismatches = 0;
    uint64_t clobbers = 0;
};

/** Execute E/D with per-array OV storage under a schedule. */
MultiRun
runMulti(const Schedule &sched, int64_t n, const IVec &e_ov,
         const IVec &d_ov)
{
    IVec lo{1, 1}, hi{n, n};
    Polyhedron domain = Polyhedron::box(lo, hi);

    // Reference with full expansion, original order.
    ExpandedArray<uint64_t> e_ref(lo, hi), d_ref(lo, hi);
    auto val_or = [&](ExpandedArray<uint64_t> &arr, const IVec &p) {
        return arr.inBounds(p) ? arr.at(p) : boundary(p);
    };
    for (int64_t i = 1; i <= n; ++i) {
        for (int64_t j = 1; j <= n; ++j) {
            IVec q{i, j};
            uint64_t ev = mix(val_or(e_ref, q - IVec{0, 1}),
                              val_or(d_ref, q - IVec{0, 1}));
            e_ref.at(q) = ev;
            uint64_t dv = mix(mix(val_or(d_ref, q - IVec{1, 1}),
                                  val_or(d_ref, q - IVec{1, 0})),
                              ev);
            d_ref.at(q) = dv;
        }
    }

    // OV-mapped run under the given schedule.
    CheckedOVArray<uint64_t> e_arr(StorageMapping::create(e_ov, domain));
    CheckedOVArray<uint64_t> d_arr(StorageMapping::create(d_ov, domain));
    auto in_box = [&](const IVec &p) {
        return p[0] >= 1 && p[1] >= 1 && p[0] <= n && p[1] <= n;
    };

    MultiRun result;
    sched.forEach(lo, hi, [&](const IVec &q) {
        IVec pe = q - IVec{0, 1};
        uint64_t e_in = in_box(pe) ? e_arr.read(q, pe) : boundary(pe);
        uint64_t d_in1 = in_box(pe) ? d_arr.read(q, pe) : boundary(pe);
        uint64_t ev = mix(e_in, d_in1);
        e_arr.write(q, ev);
        if (ev != e_ref.at(q))
            ++result.mismatches;

        IVec pd1 = q - IVec{1, 1};
        IVec pd2 = q - IVec{1, 0};
        uint64_t a = in_box(pd1) ? d_arr.read(q, pd1) : boundary(pd1);
        uint64_t b = in_box(pd2) ? d_arr.read(q, pd2) : boundary(pd2);
        uint64_t dv = mix(mix(a, b), ev);
        d_arr.write(q, dv);
        if (dv != d_ref.at(q))
            ++result.mismatches;
    });
    result.clobbers =
        e_arr.violations().size() + d_arr.violations().size();
    return result;
}

std::vector<std::unique_ptr<Schedule>>
legalSchedules()
{
    // Stencil of the whole nest: {(1,0),(0,1),(1,1)} -- rectangular
    // tiling legal, interchange legal.
    std::vector<std::unique_ptr<Schedule>> out;
    out.push_back(std::make_unique<TiledSchedule>(IMatrix::identity(2)));
    out.push_back(ScheduleBuilder(2).reorder({1, 0}).buildSchedule());
    out.push_back(std::make_unique<TiledSchedule>(
        TiledSchedule(IMatrix::identity(2), {{3, 5}})));
    out.push_back(
        std::make_unique<AffineSchedule>(std::vector<IVec>{IVec{2, 1}}));
    out.push_back(std::make_unique<RandomTopoSchedule>(
        stencils::proteinMatching(), 17));
    out.push_back(std::make_unique<RandomTopoSchedule>(
        stencils::proteinMatching(), 99));
    return out;
}

TEST(MultiExecutor, PlannedOvsSurviveEverySchedule)
{
    int64_t n = 12;
    MultiNestPlan plan = planMultiStatement(psmTwoStatementNest(n));
    ASSERT_EQ(plan.arrays[0].array, "E");
    IVec e_ov = plan.arrays[0].uov; // (0,1): one cell per row
    IVec d_ov = plan.arrays[1].uov; // (1,1): anti-diagonal
    for (const auto &sched : legalSchedules()) {
        MultiRun r = runMulti(*sched, n, e_ov, d_ov);
        EXPECT_EQ(r.mismatches, 0u) << sched->name();
        EXPECT_EQ(r.clobbers, 0u) << sched->name();
    }
}

TEST(MultiExecutor, ConservativeAntiDiagonalAlsoWorks)
{
    // The hand kernels' conservative choice ((1,1) for both arrays)
    // must also be safe -- more storage, same correctness.
    int64_t n = 12;
    for (const auto &sched : legalSchedules()) {
        MultiRun r = runMulti(*sched, n, IVec{1, 1}, IVec{1, 1});
        EXPECT_EQ(r.mismatches, 0u) << sched->name();
        EXPECT_EQ(r.clobbers, 0u) << sched->name();
    }
}

TEST(MultiExecutor, TooAggressiveEOvFails)
{
    // E with ov = (0,1) is exactly right; D with (0,1) is too
    // aggressive (D[i-1][j] and D[i-1][j-1] are still needed) and
    // must clobber under some schedule -- including the original one.
    int64_t n = 12;
    MultiRun r = runMulti(TiledSchedule(IMatrix::identity(2)), n,
                          IVec{0, 1}, IVec{0, 1});
    EXPECT_GT(r.mismatches + r.clobbers, 0u);
}

} // namespace
} // namespace uov
