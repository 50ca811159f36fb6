/**
 * @file
 * Tests for multi-statement storage planning, the generalized UOV
 * oracle, and shared UOVs across loops (the paper's Section 7 future
 * work, implemented).
 */

#include <gtest/gtest.h>

#include "analysis/multi.h"
#include "core/uov.h"
#include "support/error.h"

namespace uov {
namespace {

/** The PSM DP as a two-statement nest: gap chain E, then score D. */
LoopNest
psmTwoStatementNest(int64_t n0, int64_t n1)
{
    LoopNest nest("psm2", IVec{1, 1}, IVec{n0, n1});
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
               uniformAccess("E", IVec{0, 0})}; // same-iteration use
    nest.addStatement(d);
    return nest;
}

TEST(GeneralOracle, ReducesToClassicWithConeConsumers)
{
    Stencil s = stencils::fivePoint();
    GeneralUovOracle general(s, s.deps());
    UovOracle classic(s);
    for (int64_t t = 0; t <= 3; ++t) {
        for (int64_t j = -4; j <= 4; ++j) {
            IVec w{t, j};
            if (w.isZero())
                continue;
            EXPECT_EQ(general.isUov(w), classic.isUov(w)) << w.str();
        }
    }
    EXPECT_EQ(general.searchShortest(), (IVec{2, 0}));
}

TEST(GeneralOracle, ZeroConsumerOnlyRequiresConeMembership)
{
    // Array consumed only within its own iteration: any nonzero cone
    // member is a safe OV.
    Stencil cone = stencils::simpleExample();
    GeneralUovOracle oracle(cone, {IVec{0, 0}});
    EXPECT_TRUE(oracle.isUov(IVec{1, 0}));
    EXPECT_TRUE(oracle.isUov(IVec{0, 1}));
    EXPECT_FALSE(oracle.isUov(IVec{0, 0}));
    EXPECT_FALSE(oracle.isUov(IVec{-1, 0}));
    // Shortest is a unit vector.
    EXPECT_EQ(oracle.searchShortest().normSquared(), 1);
}

TEST(GeneralOracle, SubsetConsumersNeedShorterVectors)
{
    // Cone {(1,0),(0,1),(1,1)}; array consumed only via (1,1):
    // w = (1,1) works, and so does anything with w-(1,1) in cone.
    Stencil cone = stencils::simpleExample();
    GeneralUovOracle oracle(cone, {IVec{1, 1}});
    EXPECT_TRUE(oracle.isUov(IVec{1, 1}));
    EXPECT_FALSE(oracle.isUov(IVec{1, 0})); // (0,-1) not in cone
    EXPECT_TRUE(oracle.isUov(IVec{2, 1}));  // (1,0) in cone
}

TEST(GeneralOracle, RejectsForeignConsumers)
{
    Stencil cone({IVec{1, 0}});
    EXPECT_THROW(GeneralUovOracle(cone, {IVec{0, 1}}), UovUserError);
    EXPECT_THROW(GeneralUovOracle(cone, {}), UovUserError);
}

/** Four axis reads at distance 60 (tests/data/huge_ball.nest): the
 *  initial UOV (60,60,60,60) puts the ball scan in a 243^4 cube. */
Stencil
hugeBallCone()
{
    return Stencil({IVec{60, 0, 0, 0}, IVec{0, 60, 0, 0},
                    IVec{0, 0, 60, 0}, IVec{0, 0, 0, 60}});
}

TEST(GeneralOracle, SearchShortestRefusesAHugeBall)
{
    GeneralUovOracle oracle(hugeBallCone(), hugeBallCone().deps());
    try {
        oracle.searchShortest();
        FAIL() << "a 243^4 ball scan should be refused";
    } catch (const UovUserError &e) {
        EXPECT_STREQ(e.what(), "ball scan over the cube [-121, 121]^4 "
                               "exceeds limit 10000000 points");
    }
}

TEST(MultiPlan, PsmTwoStatementConsumers)
{
    LoopNest nest = psmTwoStatementNest(16, 16);
    auto d_cons = consumerDistances(nest, "D");
    auto e_cons = consumerDistances(nest, "E");

    // D consumed at (1,1), (1,0) by itself and (0,1) by E.
    EXPECT_EQ(d_cons.size(), 3u);
    EXPECT_NE(std::find(d_cons.begin(), d_cons.end(), IVec{0, 1}),
              d_cons.end());
    // E consumed at (0,1) by itself and same-iteration (0,0) by D
    // (D is textually later, so the zero distance is genuine flow).
    ASSERT_EQ(e_cons.size(), 2u);
    EXPECT_NE(std::find(e_cons.begin(), e_cons.end(), IVec{0, 0}),
              e_cons.end());
}

TEST(MultiPlan, SameIterationReadBeforeWriteIsImport)
{
    // A statement reading an array written by a LATER statement at
    // distance zero reads the old value: import, not consumer.
    LoopNest nest("n", IVec{1, 1}, IVec{4, 4});
    Statement first;
    first.name = "uses_B_before_write";
    first.write = uniformAccess("A", IVec{0, 0});
    first.reads = {uniformAccess("B", IVec{0, 0}),
                   uniformAccess("A", IVec{-1, 0})};
    nest.addStatement(first);
    Statement second;
    second.name = "writes_B";
    second.write = uniformAccess("B", IVec{0, 0});
    second.reads = {uniformAccess("B", IVec{0, -1})};
    nest.addStatement(second);

    auto b_cons = consumerDistances(nest, "B");
    ASSERT_EQ(b_cons.size(), 1u);
    EXPECT_EQ(b_cons[0], (IVec{0, 1}));
}

TEST(MultiPlan, PsmPlanMatchesOrBeatsPaperStorage)
{
    int64_t n = 64;
    LoopNest nest = psmTwoStatementNest(n, n);
    MultiNestPlan plan = planMultiStatement(nest);

    ASSERT_EQ(plan.arrays.size(), 2u);
    // Schedule cone is the classic PSM stencil.
    EXPECT_EQ(plan.schedule_cone, stencils::proteinMatching());

    // D needs the anti-diagonal: UOV (1,1), 2n-1 cells over [1,n]^2.
    const auto &e_plan = plan.arrays[0];
    const auto &d_plan = plan.arrays[1];
    ASSERT_EQ(d_plan.array, "D");
    EXPECT_EQ(d_plan.uov, (IVec{1, 1}));
    EXPECT_EQ(d_plan.mapping.cellCount(), 2 * n - 1);

    // E's only cross-iteration consumer is (0,1): the exact analysis
    // proves UOV (0,1) suffices -- one cell per row, n cells --
    // strictly better than the paper's conservative 2(n0+n1+1)
    // (which our hand kernels use to match Table 2).
    ASSERT_EQ(e_plan.array, "E");
    EXPECT_EQ(e_plan.uov, (IVec{0, 1}));
    EXPECT_EQ(e_plan.mapping.cellCount(), n);

    EXPECT_EQ(plan.totalCells(), (2 * n - 1) + n);
    EXPECT_LE(plan.totalCells(),
              2 * (2 * n + 1)); // never worse than Table 2
    EXPECT_FALSE(plan.str().empty());
}

TEST(MultiPlan, EUsesShorterOvThanDWhenConsumersAllow)
{
    // Give E only the same-iteration consumer: its OV can be a unit
    // vector while D still needs (1,1).
    LoopNest nest("n", IVec{1, 1}, IVec{8, 8});
    Statement e;
    e.name = "E";
    e.write = uniformAccess("E", IVec{0, 0});
    e.reads = {uniformAccess("D", IVec{0, -1}),
               uniformAccess("D", IVec{-1, 0})};
    nest.addStatement(e);
    Statement d;
    d.name = "D";
    d.write = uniformAccess("D", IVec{0, 0});
    d.reads = {uniformAccess("E", IVec{0, 0}),
               uniformAccess("D", IVec{-1, -1})};
    nest.addStatement(d);

    MultiNestPlan plan = planMultiStatement(nest);
    const auto &e_plan = plan.arrays[0];
    const auto &d_plan = plan.arrays[1];
    EXPECT_EQ(e_plan.array, "E");
    EXPECT_EQ(e_plan.uov.normSquared(), 1);
    EXPECT_GT(d_plan.uov.normSquared(), 1);
    EXPECT_LT(e_plan.mapping.cellCount(), d_plan.mapping.cellCount());
}

TEST(MultiPlan, RejectsDeadArrays)
{
    LoopNest nest("n", IVec{1, 1}, IVec{4, 4});
    Statement s;
    s.name = "w";
    s.write = uniformAccess("A", IVec{0, 0});
    s.reads = {uniformAccess("A", IVec{-1, 0})};
    nest.addStatement(s);
    Statement dead;
    dead.name = "dead";
    dead.write = uniformAccess("Z", IVec{0, 0});
    dead.reads = {uniformAccess("A", IVec{-1, -1})};
    nest.addStatement(dead);
    EXPECT_THROW(planMultiStatement(nest), UovUserError);
}

TEST(SharedUov, ExistsForCompatibleStencils)
{
    // Two loops over the same array: simple example and its (1,1)
    // sub-stencil share the anti-diagonal.
    auto shared = findSharedUov(
        {stencils::simpleExample(), Stencil({IVec{1, 1}})});
    ASSERT_TRUE(shared.has_value());
    EXPECT_EQ(*shared, (IVec{1, 1}));
    UovOracle a(stencils::simpleExample());
    UovOracle b(Stencil({IVec{1, 1}}));
    EXPECT_TRUE(a.isUov(*shared));
    EXPECT_TRUE(b.isUov(*shared));
}

TEST(SharedUov, FivePointAndItsCoarsening)
{
    auto shared = findSharedUov(
        {stencils::fivePoint(),
         Stencil({IVec{1, -1}, IVec{1, 0}, IVec{1, 1}})});
    ASSERT_TRUE(shared.has_value());
    EXPECT_EQ(*shared, (IVec{2, 0}));
}

TEST(SharedUov, MayNotExist)
{
    // UOV({(1,0),(0,1),(1,1)}) needs both coordinates reachable;
    // UOV({(2,0)}) lives on the lattice line (2k, 0): disjoint.
    auto shared = findSharedUov(
        {stencils::simpleExample(), Stencil({IVec{2, 0}})});
    EXPECT_FALSE(shared.has_value());
}

TEST(SharedUov, RefusesAHugeBall)
{
    EXPECT_THROW(findSharedUov({hugeBallCone()}), UovUserError);
}

TEST(SharedUov, SingleStencilReducesToShortest)
{
    auto shared = findSharedUov({stencils::fivePoint()});
    ASSERT_TRUE(shared.has_value());
    EXPECT_EQ(*shared, (IVec{2, 0}));
}

} // namespace
} // namespace uov
