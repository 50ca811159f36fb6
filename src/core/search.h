/**
 * @file
 * Branch-and-bound search for the best universal occupancy vector
 * (Section 3.2.2, "Algorithm Visit").
 *
 * The search walks backward value dependences from an arbitrary origin
 * q, accumulating per-point PATHSETs (which dependences occur on some
 * path from q).  A point whose PATHSET equals the full stencil is a
 * certified UOV; the best one found so far bounds the region that
 * still needs exploring.  Priorities follow the paper: distance from q
 * when the ISG bounds are unknown, projected storage when they are
 * known.
 */

#ifndef UOV_CORE_SEARCH_H
#define UOV_CORE_SEARCH_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/cone.h"
#include "core/cone_pruner.h"
#include "core/stencil.h"
#include "geometry/ivec.h"
#include "geometry/polyhedron.h"
#include "support/arena.h"
#include "support/deadline.h"

namespace uov {

/** What "best" means (Section 3.2). */
enum class SearchObjective
{
    /** ISG bounds unknown at compile time: shortest OV (squared norm). */
    ShortestVector,
    /** ISG bounds known: fewest storage cells over the given ISG. */
    BoundedStorage,
};

/**
 * Resource budget for one search run.  The incumbent is seeded with
 * the always-legal ov_o = sum(v_i), so exhausting any budget axis
 * degrades to a certified best-so-far answer rather than failing
 * (the paper: "a compiler could limit the amount of time the
 * algorithm runs and just take the best answer").
 */
struct SearchBudget
{
    /** Wall-clock budget; unbounded by default.  0 ms is legal and
     *  deterministically returns the seed incumbent. */
    Deadline deadline;

    /** Stop after this many point expansions. */
    uint64_t max_nodes = 10'000'000;
};

/** How a search run ended. */
enum class SearchStatus
{
    Optimal,  ///< search space exhausted; the answer is optimal
    Degraded, ///< a budget axis expired; answer is best-so-far
};

/** Tuning and instrumentation knobs. */
struct SearchOptions
{
    /** Required iff objective == BoundedStorage. */
    std::optional<Polyhedron> isg;

    /**
     * Use the paper's priority queue (best candidates first).  With
     * false, a FIFO worklist is used instead -- the ablation baseline.
     */
    bool use_priority_queue = true;

    /**
     * Do not shrink the search radius when a better UOV is found
     * (ablation of the paper's "reset the bound" step, Section
     * 3.2.1): the region stays at the initial |ov_o| ball, so expect
     * more expansions.  Results remain optimal.
     */
    bool disable_bound_shrinking = false;

    /** Node and wall-clock limits for this run. */
    SearchBudget budget;

    /**
     * Observer invoked whenever the incumbent improves (and once for
     * the ov_o seed), with the new best vector, its objective, the
     * nodes expanded so far, and elapsed microseconds.  Used by the
     * anytime bench to record incumbent-over-time trajectories.
     */
    std::function<void(const IVec &best, int64_t objective,
                       uint64_t nodes, int64_t elapsed_us)>
        on_incumbent;
};

/** Counters describing one search run. */
struct SearchStats
{
    uint64_t visited = 0;        ///< points expanded
    uint64_t enqueued = 0;       ///< queue pushes
    uint64_t pruned = 0;         ///< expansions skipped by geometry
    uint64_t bound_updates = 0;  ///< times a better UOV shrank the bound
    uint64_t visits_to_best = 0; ///< expansions before the final best
    uint64_t arena_bytes = 0;    ///< arena memory used by the frontier
    int64_t elapsed_us = 0;      ///< wall-clock time inside run()

    std::string str() const;
};

/** Search outcome: the best UOV and how it was found. */
struct SearchResult
{
    IVec best_uov;
    int64_t initial_objective = 0; ///< objective of ov_o
    int64_t best_objective = 0;    ///< objective of best_uov
    SearchStatus status = SearchStatus::Optimal;

    /**
     * Which budget axis expired when status == Degraded:
     * "node-budget" or "deadline".  Empty for Optimal.
     */
    std::string degraded_reason;

    SearchStats stats;

    /** Whether a budget axis expired before the space was exhausted. */
    bool
    degraded() const
    {
        return status == SearchStatus::Degraded;
    }
};

/** Branch-and-bound optimal-UOV search over one stencil. */
class BranchBoundSearch
{
  public:
    BranchBoundSearch(Stencil stencil, SearchObjective objective,
                      SearchOptions options = {});

    /** Run the search; deterministic for fixed inputs. */
    SearchResult run();

    const Stencil &stencil() const { return _stencil; }

    /**
     * The cone memo backing this search's verification pass; created
     * on first use.  Share it with certification / oracle work on the
     * same stencil so cone subproblems are solved once.
     */
    const std::shared_ptr<ConeMemo> &memo();

  private:
    int64_t objectiveOf(const IVec &w) const;

    Stencil _stencil;
    SearchObjective _objective;
    SearchOptions _options;
    ConePruner _pruner;
    std::shared_ptr<ConeMemo> _memo;
    Arena _arena; ///< frontier + point-state storage, reset per run()
};

/**
 * Reference implementation: exhaustively enumerate every integer
 * vector in the bound region and test UOV membership with the exact
 * oracle.  Used to cross-check BranchBoundSearch in tests; exponential
 * in dimension, so small radii only.
 */
SearchResult exhaustiveUovSearch(const Stencil &stencil,
                                 SearchObjective objective,
                                 const SearchOptions &options = {});

} // namespace uov

#endif // UOV_CORE_SEARCH_H
