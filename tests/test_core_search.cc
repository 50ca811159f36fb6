/**
 * @file
 * Unit tests for the branch-and-bound UOV search: agreement with the
 * exhaustive oracle, the paper's examples, pruning soundness, the
 * FIFO-vs-priority-queue ablation, and the visit cap.
 */

#include <gtest/gtest.h>

#include "core/search.h"
#include "core/storage_count.h"
#include "core/uov.h"
#include "support/error.h"

namespace uov {
namespace {

TEST(Search, SimpleExampleFindsUnitDiagonal)
{
    BranchBoundSearch search(stencils::simpleExample(),
                             SearchObjective::ShortestVector);
    SearchResult r = search.run();
    EXPECT_EQ(r.best_uov, (IVec{1, 1}));
    EXPECT_EQ(r.best_objective, 2);
    EXPECT_EQ(r.initial_objective, 8); // |(2,2)|^2
    EXPECT_GE(r.stats.bound_updates, 1u);
}

TEST(Search, FivePointFindsPaperUov)
{
    BranchBoundSearch search(stencils::fivePoint(),
                             SearchObjective::ShortestVector);
    SearchResult r = search.run();
    EXPECT_EQ(r.best_uov, (IVec{2, 0}));
    EXPECT_EQ(r.best_objective, 4);
    EXPECT_EQ(r.initial_objective, 25); // |(5,0)|^2
}

TEST(Search, ResultIsAlwaysACertifiedUov)
{
    for (const Stencil &s :
         {stencils::simpleExample(), stencils::threeVector(),
          stencils::fivePoint(), stencils::heat3D()}) {
        BranchBoundSearch search(s, SearchObjective::ShortestVector);
        SearchResult r = search.run();
        UovOracle oracle(s);
        EXPECT_TRUE(oracle.isUov(r.best_uov))
            << s.str() << " -> " << r.best_uov.str();
        EXPECT_LE(r.best_objective, r.initial_objective);
    }
}

TEST(Search, MatchesExhaustiveOnShortestObjective)
{
    for (const Stencil &s :
         {stencils::simpleExample(), stencils::threeVector(),
          stencils::fivePoint(),
          Stencil({IVec{1, 3}, IVec{1, -3}}),
          Stencil({IVec{2, 1}, IVec{1, 2}}),
          Stencil({IVec{1, 0}, IVec{0, 1}}),
          Stencil({IVec{1, -1}, IVec{0, 1}})}) {
        SearchResult bb =
            BranchBoundSearch(s, SearchObjective::ShortestVector).run();
        SearchResult ex =
            exhaustiveUovSearch(s, SearchObjective::ShortestVector);
        EXPECT_EQ(bb.best_objective, ex.best_objective) << s.str();
    }
}

TEST(Search, MatchesExhaustiveIn3D)
{
    Stencil s = stencils::heat3D();
    SearchResult bb =
        BranchBoundSearch(s, SearchObjective::ShortestVector).run();
    SearchResult ex =
        exhaustiveUovSearch(s, SearchObjective::ShortestVector);
    EXPECT_EQ(bb.best_objective, ex.best_objective);
    EXPECT_EQ(bb.best_objective, 4); // (2,0,0)
}

TEST(Search, BoundedStorageFigure3PrefersLongerVector)
{
    // Figure 3: with the parallelogram ISG the best-storage UOV can be
    // longer than the shortest one.  The stencil of Figure 2/3 is not
    // printed, so we verify the *mechanism* on a stencil where both
    // (3,0)-like and (3,1)-like candidates are UOVs.
    Stencil s({IVec{1, 0}, IVec{1, 1}, IVec{2, 1}});
    Polyhedron isg = Polyhedron::fromVertices2D(
        {IVec{1, 1}, IVec{1, 6}, IVec{10, 4}, IVec{10, 9}});

    SearchOptions opts;
    opts.isg = isg;
    SearchResult storage_best =
        BranchBoundSearch(s, SearchObjective::BoundedStorage, opts).run();
    SearchResult shortest =
        BranchBoundSearch(s, SearchObjective::ShortestVector).run();

    // Both must be genuine UOVs.
    UovOracle oracle(s);
    EXPECT_TRUE(oracle.isUov(storage_best.best_uov));
    EXPECT_TRUE(oracle.isUov(shortest.best_uov));

    // The storage objective is at least as good as the shortest
    // vector's storage, and the exhaustive search agrees.
    int64_t shortest_storage = storageCellCount(shortest.best_uov, isg);
    EXPECT_LE(storage_best.best_objective, shortest_storage);
    SearchResult ex =
        exhaustiveUovSearch(s, SearchObjective::BoundedStorage, opts);
    EXPECT_EQ(storage_best.best_objective, ex.best_objective);
}

TEST(Search, BoundedStorageMatchesExhaustive)
{
    Polyhedron isg = Polyhedron::box(IVec{0, 0}, IVec{30, 6});
    SearchOptions opts;
    opts.isg = isg;
    for (const Stencil &s :
         {stencils::simpleExample(), stencils::fivePoint(),
          Stencil({IVec{1, 1}, IVec{1, -1}})}) {
        SearchResult bb =
            BranchBoundSearch(s, SearchObjective::BoundedStorage, opts)
                .run();
        SearchResult ex =
            exhaustiveUovSearch(s, SearchObjective::BoundedStorage, opts);
        EXPECT_EQ(bb.best_objective, ex.best_objective) << s.str();
    }
}

TEST(Search, BoundedStorageRequiresIsg)
{
    EXPECT_THROW(BranchBoundSearch(stencils::simpleExample(),
                                   SearchObjective::BoundedStorage),
                 UovUserError);
}

TEST(Search, FifoAblationFindsSameOptimum)
{
    for (const Stencil &s :
         {stencils::simpleExample(), stencils::fivePoint(),
          stencils::threeVector()}) {
        SearchOptions fifo_opts;
        fifo_opts.use_priority_queue = false;
        SearchResult pq =
            BranchBoundSearch(s, SearchObjective::ShortestVector).run();
        SearchResult fifo = BranchBoundSearch(
                                s, SearchObjective::ShortestVector,
                                fifo_opts)
                                .run();
        EXPECT_EQ(pq.best_objective, fifo.best_objective) << s.str();
    }
}

TEST(Search, PriorityQueueFindsBestNoLaterThanFifo)
{
    // The paper's motivation for the priority queue: best candidates
    // are examined first, so the bound tightens sooner.
    Stencil s = stencils::fivePoint();
    SearchOptions fifo_opts;
    fifo_opts.use_priority_queue = false;
    SearchResult pq =
        BranchBoundSearch(s, SearchObjective::ShortestVector).run();
    SearchResult fifo =
        BranchBoundSearch(s, SearchObjective::ShortestVector, fifo_opts)
            .run();
    EXPECT_LE(pq.stats.visits_to_best, fifo.stats.visits_to_best);
}

TEST(Search, BoundShrinkingAblationStaysOptimal)
{
    for (const Stencil &s :
         {stencils::simpleExample(), stencils::fivePoint(),
          stencils::threeVector()}) {
        SearchOptions no_shrink;
        no_shrink.disable_bound_shrinking = true;
        SearchResult off = BranchBoundSearch(
                               s, SearchObjective::ShortestVector,
                               no_shrink)
                               .run();
        SearchResult on =
            BranchBoundSearch(s, SearchObjective::ShortestVector).run();
        EXPECT_EQ(on.best_objective, off.best_objective) << s.str();
        EXPECT_GE(off.stats.visited, on.stats.visited) << s.str();
    }
}

TEST(Search, NodeBudgetReturnsLegalFallback)
{
    SearchOptions opts;
    opts.budget.max_nodes = 1;
    SearchResult r = BranchBoundSearch(stencils::fivePoint(),
                                       SearchObjective::ShortestVector,
                                       opts)
                         .run();
    EXPECT_TRUE(r.degraded());
    EXPECT_EQ(r.degraded_reason, "node-budget");
    // Best-so-far is still a legal UOV (at worst the initial one).
    UovOracle oracle(stencils::fivePoint());
    EXPECT_TRUE(oracle.isUov(r.best_uov));
}

TEST(Search, ZeroDeadlineDegradesToInitialUov)
{
    // A 0 ms deadline is the extreme anytime case: the search must
    // return the ov_o seed, deterministically, without expanding a
    // single node.
    Stencil s = stencils::fivePoint();
    SearchOptions opts;
    opts.budget.deadline = Deadline::afterMillis(0);
    SearchResult r =
        BranchBoundSearch(s, SearchObjective::ShortestVector, opts)
            .run();
    EXPECT_TRUE(r.degraded());
    EXPECT_EQ(r.degraded_reason, "deadline");
    EXPECT_EQ(r.stats.visited, 0u);
    EXPECT_EQ(r.best_uov, s.initialUov());
    EXPECT_EQ(r.best_objective, r.initial_objective);
}

TEST(Search, IncumbentCallbackSeesSeedAndImprovements)
{
    struct Observation
    {
        int64_t objective;
        uint64_t nodes;
    };
    std::vector<Observation> seen;
    SearchOptions opts;
    opts.on_incumbent = [&](const IVec &, int64_t objective,
                            uint64_t nodes, int64_t) {
        seen.push_back({objective, nodes});
    };
    SearchResult r = BranchBoundSearch(stencils::fivePoint(),
                                       SearchObjective::ShortestVector,
                                       opts)
                         .run();
    // First observation is the ov_o seed at zero nodes; objectives
    // strictly improve; the last equals the final answer.
    ASSERT_GE(seen.size(), 2u);
    EXPECT_EQ(seen.front().objective, r.initial_objective);
    EXPECT_EQ(seen.front().nodes, 0u);
    for (size_t i = 1; i < seen.size(); ++i) {
        EXPECT_LT(seen[i].objective, seen[i - 1].objective);
        EXPECT_GE(seen[i].nodes, seen[i - 1].nodes);
    }
    EXPECT_EQ(seen.back().objective, r.best_objective);
}

TEST(Search, StatsAreCoherent)
{
    SearchResult r = BranchBoundSearch(stencils::fivePoint(),
                                       SearchObjective::ShortestVector)
                         .run();
    EXPECT_GT(r.stats.visited, 0u);
    EXPECT_GT(r.stats.enqueued, 0u);
    EXPECT_GE(r.stats.enqueued, r.stats.visited);
    EXPECT_LE(r.stats.visits_to_best, r.stats.visited);
    EXPECT_FALSE(r.degraded());
    EXPECT_EQ(r.status, SearchStatus::Optimal);
    EXPECT_TRUE(r.degraded_reason.empty());
    EXPECT_FALSE(r.stats.str().empty());
}

TEST(Search, WideStencilStress)
{
    // 9-point stencil (radius 4): UOV by the same argument is (2,0).
    Stencil s({IVec{1, -4}, IVec{1, -3}, IVec{1, -2}, IVec{1, -1},
               IVec{1, 0}, IVec{1, 1}, IVec{1, 2}, IVec{1, 3},
               IVec{1, 4}});
    SearchResult r =
        BranchBoundSearch(s, SearchObjective::ShortestVector).run();
    EXPECT_EQ(r.best_uov, (IVec{2, 0}));
}

TEST(Search, ThirtyThreeDependencesRejectedWithMessage)
{
    // PATHSETs are uint32_t masks: (1u << m) is undefined past m = 32,
    // so 33 distinct dependences must be rejected up front with a
    // message naming the limit, not fed into the search.
    std::vector<IVec> deps;
    for (int64_t k = 0; k < 33; ++k)
        deps.push_back(IVec{1, k});
    try {
        Stencil s(deps);
        FAIL() << "expected UovUserError";
    } catch (const UovUserError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("33"), std::string::npos) << msg;
        EXPECT_NE(msg.find("32"), std::string::npos) << msg;
        EXPECT_NE(msg.find("PATHSET"), std::string::npos) << msg;
    }
}

TEST(Search, ThirtyTwoDependenceBoundaryRuns)
{
    // Exactly 32 dependences is legal and exercises the full_mask ==
    // 0xffffffff special case ((1u << 32) - 1 would be UB).  A tight
    // node budget keeps it fast; the degraded result is still a
    // certified UOV.
    std::vector<IVec> deps;
    for (int64_t k = 0; k < 32; ++k)
        deps.push_back(IVec{1, k});
    Stencil s(deps);
    ASSERT_EQ(s.size(), 32u);

    SearchOptions options;
    options.budget.max_nodes = 2000;
    BranchBoundSearch search(s, SearchObjective::ShortestVector,
                             options);
    SearchResult r = search.run();
    EXPECT_TRUE(UovOracle(s).isUov(r.best_uov));
    EXPECT_LE(r.stats.visited, 2000u);
}

} // namespace
} // namespace uov
