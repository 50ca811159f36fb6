/**
 * @file
 * The service's answer object and the reference ("direct") solver the
 * whole subsystem is differentially tested against.
 *
 * Determinism contract: an answer is a pure function of the canonical
 * key -- best UOV and certificate come from BranchBoundSearch /
 * UovOracle::certify on the canonical stencil, both deterministic.
 * The batch executor, the result cache, and the single-flight table
 * may therefore return a stored answer verbatim; responses are
 * byte-identical to a fresh single-threaded computation by
 * construction (asserted end-to-end by the service fuzz oracle and
 * the replay test).
 */

#ifndef UOV_SERVICE_ANSWER_H
#define UOV_SERVICE_ANSWER_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/search.h"
#include "core/stencil.h"
#include "geometry/ivec.h"

namespace uov {
namespace service {

/** A certified best-UOV answer for one canonical query. */
struct ServiceAnswer
{
    IVec best_uov;
    int64_t best_objective = 0;
    int64_t initial_objective = 0; ///< objective of the trivial ov_o
    size_t canonical_deps = 0;     ///< |canonical stencil|

    /** Anytime answer: a budget axis expired (still certified). */
    bool degraded = false;

    /** Which budget axis ("node-budget" or "deadline"). */
    std::string degraded_reason;

    /**
     * Per-dependence coefficient rows over the *canonical* stencil:
     * rows[i] expresses best_uov = sum_j rows[i][j] * v_j with
     * rows[i][i] >= 1.  Valid for the original query too, since
     * canonicalization removes only implied constraints.
     */
    std::vector<std::vector<int64_t>> cert;

    /** Approximate heap footprint, for cache byte accounting. */
    size_t byteSize() const;

    /** The deterministic wire encoding (without the request index). */
    std::string str() const;
};

/**
 * Solve an already-canonical stencil: branch-and-bound search plus a
 * verified certificate.  @p budget bounds the search (the answer
 * degrades to the best certified UOV found, never fails -- the ov_o
 * seed guarantees a legal incumbent even at a 0 ms deadline).
 */
ServiceAnswer solveCanonical(const Stencil &canonical,
                             SearchObjective objective,
                             const std::optional<IVec> &isg_lo,
                             const std::optional<IVec> &isg_hi,
                             const SearchBudget &budget = {});

/**
 * The reference path: canonicalize, then solveCanonical.  Everything
 * the service returns must equal this function's output for the same
 * query, regardless of cache state or concurrency.
 */
ServiceAnswer solveDirect(const Stencil &stencil,
                          SearchObjective objective,
                          const std::optional<IVec> &isg_lo,
                          const std::optional<IVec> &isg_hi,
                          const SearchBudget &budget = {});

} // namespace service
} // namespace uov

#endif // UOV_SERVICE_ANSWER_H
