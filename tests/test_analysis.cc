/**
 * @file
 * Unit tests for dependence analysis, region analysis, and the
 * end-to-end pipeline on the paper's codes.
 */

#include <gtest/gtest.h>

#include "analysis/dependence.h"
#include "analysis/pipeline.h"
#include "analysis/region.h"
#include "support/error.h"

namespace uov {
namespace {

TEST(DependenceAnalysis, SimpleExampleDistances)
{
    LoopNest nest = nests::simpleExample(5, 5);
    DependenceInfo info = analyzeDependences(nest, 0);
    ASSERT_EQ(info.reads.size(), 3u);
    for (const auto &r : info.reads)
        EXPECT_EQ(r.kind, ReadKind::LoopCarriedFlow) << r.distance.str();
    auto flows = info.flowDistances();
    EXPECT_NE(std::find(flows.begin(), flows.end(), IVec{1, 0}),
              flows.end());
    EXPECT_NE(std::find(flows.begin(), flows.end(), IVec{0, 1}),
              flows.end());
    EXPECT_NE(std::find(flows.begin(), flows.end(), IVec{1, 1}),
              flows.end());
}

TEST(DependenceAnalysis, StencilMatchesPaper)
{
    EXPECT_EQ(extractStencil(nests::simpleExample(5, 5), 0),
              stencils::simpleExample());
    EXPECT_EQ(extractStencil(nests::fivePointStencil(6, 32), 0),
              stencils::fivePoint());
    EXPECT_EQ(extractStencil(nests::proteinMatching(5, 5), 0),
              stencils::proteinMatching());
}

TEST(DependenceAnalysis, ImportsClassified)
{
    // A statement reading a *forward* element always imports it.
    LoopNest nest("n", IVec{1, 1}, IVec{4, 4});
    Statement s;
    s.name = "s";
    s.write = uniformAccess("A", IVec{0, 0});
    s.reads = {uniformAccess("A", IVec{-1, 0}),
               uniformAccess("A", IVec{0, 1}),  // distance (0,-1): import
               uniformAccess("A", IVec{0, 0})}; // distance (0,0): import
    nest.addStatement(s);
    DependenceInfo info = analyzeDependences(nest, 0);
    ASSERT_EQ(info.reads.size(), 3u);
    EXPECT_EQ(info.reads[0].kind, ReadKind::LoopCarriedFlow);
    EXPECT_EQ(info.reads[1].kind, ReadKind::Import);
    EXPECT_EQ(info.reads[2].kind, ReadKind::Import);
    EXPECT_EQ(info.flowDistances().size(), 1u);
}

TEST(DependenceAnalysis, ReadsOfOtherArraysIgnored)
{
    LoopNest nest("n", IVec{1, 1}, IVec{4, 4});
    Statement s;
    s.name = "s";
    s.write = uniformAccess("A", IVec{0, 0});
    s.reads = {uniformAccess("A", IVec{-1, 0}),
               uniformAccess("W", IVec{0, 0})}; // weight table
    nest.addStatement(s);
    DependenceInfo info = analyzeDependences(nest, 0);
    EXPECT_EQ(info.reads.size(), 1u);
}

TEST(DependenceAnalysis, NonUniformReadRejected)
{
    LoopNest nest("n", IVec{1, 1}, IVec{4, 4});
    Statement s;
    s.name = "s";
    s.write = uniformAccess("A", IVec{0, 0});
    Access transposed;
    transposed.array = "A";
    transposed.coef = IMatrix({{0, 1}, {1, 0}});
    transposed.offset = IVec{0, 0};
    s.reads = {transposed};
    nest.addStatement(s);
    EXPECT_THROW(analyzeDependences(nest, 0), UovUserError);
}

TEST(DependenceAnalysis, NonUnimodularWriteRejected)
{
    LoopNest nest("n", IVec{1, 1}, IVec{4, 4});
    Statement s;
    s.name = "s";
    Access w;
    w.array = "A";
    w.coef = IMatrix({{2, 0}, {0, 1}});
    w.offset = IVec{0, 0};
    s.write = w;
    nest.addStatement(s);
    EXPECT_THROW(analyzeDependences(nest, 0), UovUserError);
}

TEST(RegionAnalysis, SimpleExampleCounts)
{
    // Figure 1(a) with live-out = last row (i == n).
    int64_t n = 6, m = 4;
    LoopNest nest = nests::simpleExample(n, m);
    RegionSummary s =
        analyzeRegions(nest, 0, live_out::hyperplane(0, n));
    EXPECT_EQ(s.written, n * m);
    // Imports: row 0 (m+1 incl. corner) plus column 0 (n entries).
    EXPECT_EQ(s.imported, (m + 1) + n);
    EXPECT_EQ(s.live_out, m);
    EXPECT_EQ(s.temporary, n * m - m);
    EXPECT_TRUE(s.hasTemporaries());
    EXPECT_FALSE(s.str().empty());
}

TEST(RegionAnalysis, EverythingLiveOutMeansNoTemporaries)
{
    LoopNest nest = nests::simpleExample(4, 4);
    RegionSummary s = analyzeRegions(nest, 0, live_out::everything());
    EXPECT_EQ(s.temporary, 0);
    EXPECT_FALSE(s.hasTemporaries());
}

TEST(Pipeline, SimpleExampleEndToEnd)
{
    int64_t n = 8, m = 6;
    PlanOptions opts;
    opts.live_out = live_out::hyperplane(0, n);
    MappingPlan plan =
        planStorageMapping(nests::simpleExample(n, m), 0, opts);

    EXPECT_EQ(plan.stencil, stencils::simpleExample());
    EXPECT_EQ(plan.search.best_uov, (IVec{1, 1}));
    // ISG is [1,n]x[1,m]; projection along (-1,1) spans -(n-1)..(m-1):
    // n+m-1 cells.  (Figure 1 counts the boundary input nodes too and
    // reports n+m+1; the kernel layer includes them explicitly.)
    EXPECT_EQ(plan.mapping.cellCount(), n + m - 1);
    EXPECT_EQ(plan.expanded_cells, n * m);
    EXPECT_GT(plan.expansionRatio(), 1.0);
    EXPECT_FALSE(plan.str().empty());
}

TEST(Pipeline, FivePointEndToEnd)
{
    MappingPlan plan =
        planStorageMapping(nests::fivePointStencil(50, 200), 0);
    EXPECT_EQ(plan.search.best_uov, (IVec{2, 0}));
    // Two rows of the (in-nest) ISG width.
    EXPECT_EQ(plan.mapping.cellCount(), 2 * 200);
    EXPECT_EQ(plan.expanded_cells, 50 * 200);
}

TEST(Pipeline, BoundedStorageObjective)
{
    PlanOptions opts;
    opts.objective = SearchObjective::BoundedStorage;
    MappingPlan plan =
        planStorageMapping(nests::fivePointStencil(40, 64), 0, opts);
    // Over a wide box the storage-optimal UOV is still (2,0).
    EXPECT_EQ(plan.search.best_uov, (IVec{2, 0}));
}

TEST(Pipeline, InitialUovAblation)
{
    PlanOptions opts;
    opts.use_initial_uov = true;
    MappingPlan plan =
        planStorageMapping(nests::fivePointStencil(40, 64), 0, opts);
    EXPECT_EQ(plan.search.best_uov, (IVec{5, 0}));
    EXPECT_EQ(plan.mapping.modClasses(), 5);
    // The initial UOV costs more storage than the searched one.
    MappingPlan best =
        planStorageMapping(nests::fivePointStencil(40, 64), 0);
    EXPECT_GT(plan.mapping.cellCount(), best.mapping.cellCount());
}

TEST(Pipeline, RejectsAllLiveOut)
{
    PlanOptions opts;
    opts.live_out = live_out::everything();
    EXPECT_THROW(planStorageMapping(nests::simpleExample(4, 4), 0, opts),
                 UovUserError);
}

} // namespace
} // namespace uov
