/**
 * @file
 * Value-based dependence analysis for uniform loop nests (Section 2).
 *
 * In the paper's program class -- a single write per array, affine
 * accesses sharing the write's linear part -- the last-write tree of
 * every read collapses to a constant distance vector: the value read
 * at iteration q was written at q - d, where d is determined by the
 * access offsets.  This module computes those distances, validates the
 * regular-stencil assumptions instead of assuming them, and classifies
 * each read as loop-carried flow, within-iteration import, or boundary
 * import.
 */

#ifndef UOV_ANALYSIS_DEPENDENCE_H
#define UOV_ANALYSIS_DEPENDENCE_H

#include <vector>

#include "core/stencil.h"
#include "ir/program.h"

namespace uov {

/** Classification of one read access. */
enum class ReadKind
{
    /** Value produced by an earlier in-nest iteration (flow dep). */
    LoopCarriedFlow,
    /**
     * Distance is zero or lexicographically negative: under the
     * original schedule the producing iteration has not run, so the
     * read always sees pre-loop (imported) data.
     */
    Import,
};

/** One analyzed read. */
struct ReadDependence
{
    size_t read_index;  ///< position in Statement::reads
    IVec distance;      ///< consumer - producer (write-to-read)
    ReadKind kind;
};

/** Full dependence summary of one statement. */
struct DependenceInfo
{
    size_t statement_index;
    std::vector<ReadDependence> reads;

    /** Distances of the loop-carried flow reads only. */
    std::vector<IVec> flowDistances() const;
};

/**
 * Analyze statement @p stmt_index of @p nest.
 *
 * @throws UovUserError when a read of the statement's own array does
 *         not share the write's (unimodular) linear part -- the
 *         regular-stencil precondition fails and no constant distance
 *         exists.  Reads of other arrays are ignored (they carry no
 *         dependence on this statement's values).
 */
DependenceInfo analyzeDependences(const LoopNest &nest,
                                  size_t stmt_index);

/**
 * The reduced-ISG stencil of the statement: its loop-carried flow
 * distances (Section 3, "reduced ISG").
 * @throws UovUserError if the statement has no loop-carried flow
 */
Stencil extractStencil(const LoopNest &nest, size_t stmt_index);

} // namespace uov

#endif // UOV_ANALYSIS_DEPENDENCE_H
