/**
 * @file
 * Register-pressure cost model for unroll-and-jam factor selection
 * (the "Tiling Perspective for Register Optimization" direction from
 * PAPERS.md, scaled down to the paper's uniform-stencil class).
 *
 * Unrolling the innermost loop by U and jamming the second-innermost
 * loop by J replicates the statement J*U times per iteration of the
 * emitted body.  Copies whose read offsets coincide share a load, and
 * a read that lands on another copy's write is forwarded through a
 * register instead of touching memory at all.  The model enumerates a
 * small candidate grid, counts distinct loads / forwards / registers
 * exactly (the dependence distances are constants, so the count is a
 * set cardinality, not an estimate), and picks the legal candidate
 * with the fewest loads per iteration that still fits the register
 * budget.
 *
 * The budget is informed by the live-value count the mapping layer
 * already knows: a kernel whose whole OV-mapped working set fits in
 * registers cannot need more load slots than it has cells.
 */

#ifndef UOV_CODEGEN_REGCOST_H
#define UOV_CODEGEN_REGCOST_H

#include <cstdint>
#include <vector>

#include "geometry/ivec.h"
// jamLegal lives with the other schedule-legality predicates; kept
// reachable from here because jam selection is its main client.
#include "schedule/legality.h"

namespace uov {

/** One unroll-and-jam candidate with its exact register economics. */
struct RegisterPlan
{
    int64_t jam = 1;    ///< unroll-and-jam factor, second-innermost
    int64_t unroll = 1; ///< unroll factor, innermost loop
    int64_t loads = 0;  ///< distinct val() reads per emitted body
    int64_t forwards = 0; ///< reads satisfied by an in-tile write
    int64_t regs = 0;   ///< estimated registers the body keeps live

    /** Statement copies per emitted body. */
    int64_t copies() const { return jam * unroll; }

    /** Loads per original iteration (the quantity minimized). */
    double loadsPerIter() const
    {
        return static_cast<double>(loads) /
               static_cast<double>(copies());
    }
};

/**
 * Pick unroll-and-jam factors for a depth-@p depth nest whose reads
 * carry the constant distances @p dists.
 *
 * Candidates are {1,2,4} x {1,2,4,8} (jam fixed to 1 for 1-D nests
 * and for illegal jams).  @p available_regs bounds the estimated
 * pressure; @p live_hint, when positive, is the mapping layer's
 * simultaneously-live value count -- distinct loads can never exceed
 * it, so it tightens the pressure estimate for tiny working sets.
 *
 * Deterministic: a pure function of its arguments.
 * @pre depth >= 1, every distance has dimension depth
 */
RegisterPlan pickRegisterPlan(const std::vector<IVec> &dists,
                              size_t depth,
                              int64_t available_regs = 16,
                              int64_t live_hint = 0);

/**
 * Exact register economics of one (jam, unroll) choice (the inner
 * loop of pickRegisterPlan, exposed so tests and benches can tabulate
 * the whole candidate grid).
 * @pre jam >= 1, unroll >= 1; jam == 1 when depth == 1
 */
RegisterPlan evaluateRegisterPlan(const std::vector<IVec> &dists,
                                  size_t depth, int64_t jam,
                                  int64_t unroll,
                                  int64_t live_hint = 0);

} // namespace uov

#endif // UOV_CODEGEN_REGCOST_H
