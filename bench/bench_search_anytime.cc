/**
 * @file
 * Anytime behaviour of the branch-and-bound UOV search: the incumbent
 * is seeded with the always-legal ov_o = sum(v_i), so a feasible
 * answer exists at node 0 and every budget expiry degrades gracefully
 * to a certified best-so-far vector (the paper: "a compiler could
 * limit the amount of time the algorithm runs and just take the best
 * answer").
 *
 * Hard instances come from the Section 3.1 PARTITION reduction (the
 * NP-completeness construction), whose stencils force real search
 * effort.  n stays <= 8 because the reduction's magic coordinates make
 * |ov_o|^2 overflow int64 beyond that.
 *
 * Output: an incumbent-over-time trajectory table (diagnostic; not
 * plotted) followed by a "Problem Size" summary table in the standard
 * scaling-bench format, so scripts/plot_benches.py picks up
 * time-to-first-feasible vs time-to-optimal directly.
 */

#include "bench_common.h"

#include "core/reduction.h"
#include "core/search.h"
#include "support/rng.h"

using namespace uov;

namespace {

/** One incumbent observation from SearchOptions::on_incumbent. */
struct Observation
{
    int64_t objective = 0;
    uint64_t nodes = 0;
    int64_t elapsed_us = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseArgs(argc, argv);
    bench::banner("anytime search (incumbent-over-time on "
                  "PARTITION-reduction stencils)");

    // Diagnostic trajectory table first: its header is deliberately
    // NOT a recognized size header, so plot_benches.py skips it and
    // starts plotting at the summary table below.
    Table trajectory("Incumbent trajectory (one improving row per "
                     "bound update)");
    trajectory.header({"n", "step", "nodes", "elapsed us",
                       "objective"});

    Table summary("Time to first feasible vs time to optimal");
    summary.header({"Problem Size", "first feasible us", "optimal us",
                    "nodes", "nodes/s", "arena KiB", "initial value",
                    "optimal value", "deadline0 value"});

    SplitMix64 rng(19981004);
    size_t max_n = opt.quick ? 5 : 8;
    bool sound = true;
    for (size_t n = 3; n <= max_n; ++n) {
        PartitionInstance inst = bench::randomPartition(n, rng);
        UovMembershipInstance red = buildReduction(inst);

        std::vector<Observation> obs;
        SearchOptions options;
        options.on_incumbent = [&](const IVec &, int64_t objective,
                                   uint64_t nodes,
                                   int64_t elapsed_us) {
            obs.push_back({objective, nodes, elapsed_us});
        };
        BranchBoundSearch search(red.stencil,
                                 SearchObjective::ShortestVector,
                                 options);
        SearchResult result = search.run();

        for (size_t k = 0; k < obs.size(); ++k) {
            trajectory.addRow()
                .cell(int64_t(n))
                .cell(int64_t(k))
                .cell(obs[k].nodes)
                .cell(obs[k].elapsed_us)
                .cell(obs[k].objective);
        }

        // The same instance under a zero wall-clock budget: the
        // degraded answer is the certified ov_o seed, never worse.
        SearchOptions zero;
        zero.budget.deadline = Deadline::afterMillis(0);
        SearchResult degraded =
            BranchBoundSearch(red.stencil,
                              SearchObjective::ShortestVector, zero)
                .run();

        sound = sound && !obs.empty() && obs.front().nodes == 0 &&
                obs.back().objective == result.best_objective &&
                degraded.degraded() &&
                degraded.best_objective == result.initial_objective &&
                result.best_objective <= result.initial_objective;

        int64_t nodes_per_s =
            result.stats.elapsed_us > 0
                ? static_cast<int64_t>(
                      result.stats.visited * 1'000'000 /
                      static_cast<uint64_t>(result.stats.elapsed_us))
                : 0;
        summary.addRow()
            .cell(int64_t(n))
            .cell(obs.empty() ? int64_t(0) : obs.front().elapsed_us)
            .cell(result.stats.elapsed_us)
            .cell(result.stats.visited)
            .cell(nodes_per_s)
            .cell(int64_t(result.stats.arena_bytes / 1024))
            .cell(result.initial_objective)
            .cell(result.best_objective)
            .cell(degraded.best_objective);
    }

    bench::emit(trajectory, opt);
    bench::emit(summary, opt);

    // Keep the CSV stream pure tables: plot_benches.py would read a
    // trailing prose line as a stray row of the summary table.
    if (!opt.csv)
        std::cout << "anytime contract held on every instance: "
                  << (sound ? "yes" : "NO") << "\n";
    return sound ? 0 : 1;
}
