/**
 * @file
 * Modular storage mappings: cell(q) = q mod m (component-wise), the
 * storage discipline of the schedule-given literature the paper
 * compares against (Section 6, Lefebvre/Feautrier).
 *
 * Two iterations share a cell iff they differ by a lattice vector of
 * m1 Z x ... x md Z.  Such a mapping is *universally* safe iff every
 * nonzero lattice difference realizable inside the ISG is a safe
 * reuse distance (its lex-positive form is a UOV).  For most stencils
 * that forces the moduli up to the full ISG extents -- rectangular
 * modular reuse needs schedule knowledge, which is exactly why the
 * paper's occupancy *vectors* (a single lattice line, freely oriented)
 * can stay small and schedule-independent.  This module makes that
 * comparison executable:
 *
 *   - ModularMapping: the mapping itself (cells = product of moduli);
 *   - universallySafeModuli: smallest moduli safe for EVERY legal
 *     schedule (exact, via the UOV oracle);
 *   - scheduleSpecificModuli: smallest moduli safe for one linear
 *     schedule (via ovLegalForLinearSchedule).
 */

#ifndef UOV_MAPPING_MODULAR_MAPPING_H
#define UOV_MAPPING_MODULAR_MAPPING_H

#include <cstdint>
#include <vector>

#include "core/stencil.h"
#include "geometry/box.h"
#include "geometry/ivec.h"
#include "geometry/polyhedron.h"

namespace uov {

/** cell(q) = sum_k ((q_k - lo_k) mod m_k) * stride_k. */
class ModularMapping
{
  public:
    /**
     * @param moduli per-dimension moduli (>= 1)
     * @param lo ISG lower corner (normalization offset)
     */
    ModularMapping(IVec moduli, IVec lo);

    int64_t operator()(const IVec &q) const;
    int64_t cellCount() const { return _residues.cells(); }
    const IVec &moduli() const { return _m; }

    std::string str() const;

  private:
    IVec _m;
    IVec _lo;
    BoxLayout _residues; ///< row-major over [0, m - 1]
};

/** Result of a moduli search. */
struct ModuliSearchResult
{
    IVec moduli;
    int64_t cells = 0;
    bool trivial = false; ///< moduli == full ISG extents (no reuse)
};

/**
 * Smallest-cell moduli whose reuse is safe under EVERY legal schedule
 * of @p stencil over the box [lo, hi].  Exact: every realizable
 * nonzero lattice difference is checked against the UOV oracle.
 * Typically returns the trivial (full-extent) moduli -- the negative
 * result motivating occupancy vectors.
 */
ModuliSearchResult universallySafeModuli(const Stencil &stencil,
                                         const IVec &lo, const IVec &hi);

/**
 * Smallest-cell moduli safe for the single linear schedule
 * sigma(q) = h.q (the Lefebvre/Feautrier setting).
 * @pre h.v > 0 for every dependence
 */
ModuliSearchResult scheduleSpecificModuli(const IVec &h,
                                          const Stencil &stencil,
                                          const IVec &lo,
                                          const IVec &hi);

} // namespace uov

#endif // UOV_MAPPING_MODULAR_MAPPING_H
