/**
 * @file
 * Array region analysis (Section 2, citing Creusillet/Irigoin):
 * which elements a loop nest imports, which it exports, and which are
 * temporaries eligible for OV storage mapping.
 *
 * The paper's method applies only to values that are *temporary* --
 * produced and fully consumed inside the nest, dead on exit except for
 * an explicitly live-out region.  This module computes those regions
 * exactly (by enumeration over the bounded ISG) so the applicability
 * check is real rather than asserted.
 */

#ifndef UOV_ANALYSIS_REGION_H
#define UOV_ANALYSIS_REGION_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "geometry/box.h"
#include "ir/program.h"

namespace uov {

/** Which written elements remain live after the nest. */
using LiveOutPredicate = std::function<bool(const IVec &element)>;

/** Exact region summary for one statement's array. */
struct RegionSummary
{
    std::string array;
    int64_t written = 0;     ///< distinct elements written
    int64_t imported = 0;    ///< distinct elements read from outside
    int64_t live_out = 0;    ///< written elements live after the nest
    int64_t temporary = 0;   ///< written and not live-out

    /** True iff the nest produces temporaries worth OV-mapping. */
    bool hasTemporaries() const { return temporary > 0; }

    std::string str() const;
};

/**
 * Analyze the regions of the statement's written array.
 *
 * @param live_out which written elements the rest of the program still
 *        needs (e.g. "the last row of A" in Figure 1)
 * @param max_scan enumeration guard (trip count bound)
 */
RegionSummary analyzeRegions(const LoopNest &nest, size_t stmt_index,
                             const LiveOutPredicate &live_out,
                             int64_t max_scan = kMaxScanPoints);

/** Convenience predicates. */
namespace live_out {

/** Nothing survives the nest. */
LiveOutPredicate nothing();

/** Every written element survives. */
LiveOutPredicate everything();

/** Elements whose coordinate @p dim equals @p value survive. */
LiveOutPredicate hyperplane(size_t dim, int64_t value);

} // namespace live_out

} // namespace uov

#endif // UOV_ANALYSIS_REGION_H
