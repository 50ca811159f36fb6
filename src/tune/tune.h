/**
 * @file
 * The joint autotuner: search over (UOV candidate, schedule primitive
 * sequence, tile/unroll factors), scored by a pluggable evaluator.
 *
 * The paper decouples storage from scheduling; the tuner exploits
 * both halves of that freedom at once.  A run:
 *
 *  1. plans the nest (dependence analysis + regions, no search),
 *  2. pools UOV candidates from budgeted branch-and-bound runs under
 *     both objectives plus the always-legal ov_o seed,
 *  3. enumerates legal schedule compositions (ScheduleBuilder) per
 *     storage variant -- the default lexicographic OV-mapped kernel
 *     is always candidate 0,
 *  4. scores candidates in enumeration order until the SearchBudget
 *     expires, keeping the best (strictly smaller score wins, ties
 *     keep the earlier candidate).
 *
 * Anytime contract (PR 4 machinery): candidate 0 is evaluated before
 * the first budget poll, so even a 0 ms deadline returns a legal,
 * certified configuration -- tagged Degraded, deterministically.
 * Under the simulator evaluator the whole run is a pure function of
 * (nest, options), so repeated runs agree byte-for-byte; measurement
 * evaluators trade that for wall-clock truth.
 */

#ifndef UOV_TUNE_TUNE_H
#define UOV_TUNE_TUNE_H

#include <functional>
#include <string>
#include <vector>

#include "core/search.h"
#include "ir/program.h"
#include "tune/evaluator.h"

namespace uov {

/**
 * Realize a stencil as the paper's single-statement nest over
 * [lo, hi]: the statement writes N[q] and reads N[q - v] for every
 * dependence v (shared by 'query native'/'query tune', the fuzz
 * oracles, and the benches).
 */
LoopNest nestFromStencil(const Stencil &stencil, const IVec &lo,
                         const IVec &hi,
                         const std::string &name = "stencil");

namespace tune {

/** How a tune run ended (mirrors SearchStatus). */
enum class TuneStatus
{
    Optimal,  ///< every enumerated candidate was evaluated
    Degraded, ///< a budget axis expired; best-so-far returned
};

/** Tuner configuration. */
struct TuneOptions
{
    /** Shared wall-clock/node budget for the embedded UOV searches
     *  and the evaluation loop. */
    SearchBudget budget;

    /** Scoring backend; nullptr uses a built-in SimEvaluator with
     *  the Ultra 2 machine model. */
    Evaluator *evaluator = nullptr;

    /** Enumerate only candidates the C emitter can lower (the JIT
     *  evaluator's reach); false adds simulator-only compositions
     *  such as legal loop permutations. */
    bool lowerable_only = true;

    /** Evaluate at most this many candidates (0 = all). */
    size_t max_candidates = 0;

    /**
     * Observer invoked after every evaluation with the candidate,
     * its score, its enumeration index, and elapsed microseconds --
     * the bench's time-to-best trajectory hook and the fuzz oracle's
     * every-candidate-legal probe.
     */
    std::function<void(const TuneCandidate &, double score,
                       size_t index, int64_t elapsed_us)>
        on_candidate;
};

/** Outcome of one tune run. */
struct TuneResult
{
    TuneCandidate best;      ///< always set: candidate 0 at worst
    double best_score = 0.0; ///< evaluator units (cycles or ns)
    size_t evaluated = 0;
    size_t candidates_total = 0; ///< enumerated space size
    TuneStatus status = TuneStatus::Optimal;
    /** "deadline", "node-budget" (UOV search), or
     *  "candidate-budget"; empty for Optimal. */
    std::string degraded_reason;
    SearchResult uov_shortest; ///< embedded shortest-vector search
    SearchResult uov_storage;  ///< embedded bounded-storage search
    int64_t elapsed_us = 0;

    bool
    degraded() const
    {
        return status == TuneStatus::Degraded;
    }
};

/**
 * Joint (UOV, schedule, factors) tuner over one nest's statement 0.
 *
 * Deterministic under deterministic evaluators: the candidate space
 * and its order are pure functions of (nest, options), and budget
 * expiry only truncates the evaluation prefix.
 */
class Tuner
{
  public:
    /** @throws UovUserError when the nest has no regular stencil */
    explicit Tuner(LoopNest nest, TuneOptions options = {});

    /**
     * Run the tune.  The returned best candidate is certified: an
     * OV-mapped winner's vector is re-verified with the exact UOV
     * oracle before returning.
     * @throws UovUserError when planning fails (no temporaries);
     *         evaluator exceptions propagate
     */
    TuneResult run();

    const Stencil &stencil() const { return _stencil; }
    const LoopNest &nest() const { return _nest; }

    /** The enumerated candidate space (valid after run()). */
    const std::vector<TuneCandidate> &candidates() const
    {
        return _candidates;
    }

    /** Scores of the evaluated prefix, indexed like candidates(). */
    const std::vector<double> &scores() const { return _scores; }

    /**
     * The candidates 'query tune' measures natively, as indices into
     * candidates(): candidate 0 (the lexicographic baseline) first,
     * then the four best-scored lowerable candidates other than 0 from
     * the evaluated prefix, ties in enumeration order.  Valid after
     * run().
     */
    std::vector<size_t> measuredSet() const;

  private:
    LoopNest _nest;
    TuneOptions _options;
    Stencil _stencil;
    std::vector<TuneCandidate> _candidates;
    std::vector<double> _scores;
};

} // namespace tune
} // namespace uov

#endif // UOV_TUNE_TUNE_H
