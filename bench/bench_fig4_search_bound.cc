/**
 * @file
 * Reproduces Figure 4: how the initial UOV ov_o = sum(V) bounds the
 * search region, and how much the reachability pruning (the paper's
 * extreme-vector parallelepiped) cuts from the search.
 */

#include "bench_common.h"

#include "core/cone_pruner.h"
#include "core/reduction.h"
#include "core/search.h"
#include "support/rng.h"

using namespace uov;

namespace {

int64_t
nodesPerSecond(uint64_t visited, int64_t elapsed_us)
{
    if (elapsed_us <= 0)
        return 0;
    return static_cast<int64_t>(visited * 1'000'000 /
                                static_cast<uint64_t>(elapsed_us));
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseArgs(argc, argv);
    bench::banner("Figure 4 (bounding the search with ov_o and the "
                  "dependence cone)");

    Table t("Search-region geometry per stencil");
    t.header({"stencil", "ov_o", "|ov_o|^2", "extreme vectors",
              "visited", "pruned", "best uov"});

    for (const Stencil &s :
         {stencils::simpleExample(), stencils::threeVector(),
          stencils::fivePoint(),
          Stencil({IVec{1, 5}, IVec{1, -5}, IVec{2, 0}})}) {
        auto [lo, hi] = s.extremeVectors2D();
        SearchResult r =
            BranchBoundSearch(s, SearchObjective::ShortestVector).run();
        t.addRow()
            .cell(s.str())
            .cell(s.initialUov().str())
            .cell(s.initialUov().normSquared())
            .cell(lo.str() + " / " + hi.str())
            .cell(r.stats.visited)
            .cell(r.stats.pruned)
            .cell(r.best_uov.str());
    }
    bench::emit(t, opt);

    // Demonstrate the pruning region test on the 5-point stencil.
    Stencil five = stencils::fivePoint();
    ConePruner pruner(five);
    int64_t radius_sq = five.initialUov().normSquared();

    Table p("Reachability pruning around the 5-point stencil "
            "(radius^2 = |ov_o|^2 = " +
            std::to_string(radius_sq) + ")");
    p.header({"offset w", "min reachable |.|^2 (lower bound)",
              "pruned?"});
    for (const IVec &w : {IVec{1, 0}, IVec{1, 2}, IVec{2, 4}, IVec{3, 6},
                          IVec{4, 8}, IVec{5, 10}}) {
        double lb = pruner.minReachableNormSquared(w);
        p.addRow()
            .cell(w.str())
            .cell(lb, 2)
            .cell(pruner.prune(w, radius_sq) ? "yes" : "no");
    }
    bench::emit(p, opt);

    // Search-core throughput on the NP-completeness construction: the
    // PARTITION-reduction stencils are where expansion cost dominates,
    // so nodes/s here tracks the flat point-table + arena frontier
    // data layout directly.  "Problem Size" makes plot_benches.py pick
    // the table up; the nodes/s columns are per-unit diagnostics it
    // skips by contract.
    Table part("PARTITION-reduction search throughput "
               "(priority queue vs FIFO worklist)");
    part.header({"Problem Size", "pq visited", "fifo visited",
                 "pq nodes/s", "fifo nodes/s", "arena KiB",
                 "optimal value"});

    SplitMix64 rng(19981004);
    size_t max_n = opt.quick ? 6 : 8;
    for (size_t n = 3; n <= max_n; ++n) {
        PartitionInstance inst = bench::randomPartition(n, rng);
        UovMembershipInstance red = buildReduction(inst);
        if (n < 6)
            continue; // keep the RNG stream aligned with the
                      // anytime bench; only n >= 6 is search-bound

        SearchOptions pq_opt;
        SearchResult pq_r =
            BranchBoundSearch(red.stencil,
                              SearchObjective::ShortestVector, pq_opt)
                .run();

        SearchOptions fifo_opt;
        fifo_opt.use_priority_queue = false;
        SearchResult fifo_r =
            BranchBoundSearch(red.stencil,
                              SearchObjective::ShortestVector,
                              fifo_opt)
                .run();

        part.addRow()
            .cell(int64_t(n))
            .cell(pq_r.stats.visited)
            .cell(fifo_r.stats.visited)
            .cell(nodesPerSecond(pq_r.stats.visited,
                                 pq_r.stats.elapsed_us))
            .cell(nodesPerSecond(fifo_r.stats.visited,
                                 fifo_r.stats.elapsed_us))
            .cell(int64_t(pq_r.stats.arena_bytes / 1024))
            .cell(pq_r.best_objective);
    }
    bench::emit(part, opt);
    return 0;
}
