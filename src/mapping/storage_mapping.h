/**
 * @file
 * OV-based storage mappings (Section 4).
 *
 * A storage mapping sends an iteration point q to an index in
 * one-dimensional memory:
 *
 *     SM_ov(q) = mv . q + shift + modterm
 *
 * where mv maps iterations to relative locations (kernel = the OV
 * line), shift makes the result non-negative over the ISG, and modterm
 * separates the gcd(ov) storage classes of a non-prime OV -- either
 * interleaved (classes alternate in memory) or blocked (each class
 * gets a contiguous block), exactly the two layouts of Section 4.2 /
 * Figure 5.
 *
 * The 2-D construction follows the paper literally (mv = (-j, i)); the
 * d-dimensional construction generalizes it through a unimodular
 * completion of the primitive OV.  Both take their rows from
 * ovProjectionRows (geometry/lattice.h), each row's range from
 * Polyhedron::projectedRange, and linearize the projected coordinates
 * with the BoxLayout of those ranges (geometry/box.h) -- the same
 * rows and ranges storageCellCount multiplies.
 */

#ifndef UOV_MAPPING_STORAGE_MAPPING_H
#define UOV_MAPPING_STORAGE_MAPPING_H

#include <cstdint>
#include <string>
#include <vector>

#include "geometry/box.h"
#include "geometry/ivec.h"
#include "geometry/polyhedron.h"

namespace uov {

/** Layouts for the gcd(ov) classes of a non-prime OV (Section 4.2). */
enum class ModLayout
{
    Interleaved, ///< classes alternate: SM = mv.q + (alpha.q mod g)
    Blocked,     ///< contiguous blocks: SM = mv'.q + (alpha.q mod g)*L
};

/**
 * A concrete, evaluable OV storage mapping over a bounded ISG.
 *
 * Guarantees (verified in tests):
 *  - SM(q + ov) == SM(q) for all q (requirement 1, Section 4.1);
 *  - SM(q) is an integer in [0, cellCount()) for every integer ISG
 *    point (requirements 2-3: integrality and consecutiveness).
 */
class StorageMapping
{
  public:
    /**
     * Build the mapping for @p ov over @p isg.
     *
     * @param block_pad extra cells appended to each class block in the
     *        Blocked layout (array padding, Section 4: "it would not
     *        be difficult to incorporate data layout techniques such
     *        as array padding"); breaks power-of-two block strides
     *        that alias in low-associativity caches.  Ignored for
     *        prime OVs and the Interleaved layout.
     * @pre ov is nonzero and matches the ISG dimension
     */
    static StorageMapping create(const IVec &ov, const Polyhedron &isg,
                                 ModLayout layout = ModLayout::Interleaved,
                                 int64_t block_pad = 0);

    /** Evaluate SM(q). */
    int64_t operator()(const IVec &q) const;

    /** Number of cells to allocate (range of SM over the ISG). */
    int64_t cellCount() const { return _cells; }

    const IVec &ov() const { return _ov; }
    ModLayout layout() const { return _layout; }

    /** gcd of the OV coordinates (1 for prime OVs). */
    int64_t modClasses() const { return _g; }

    /**
     * The linear part of the mapping, one vector per linearized
     * projected coordinate (a single vector in 2-D: the paper's mv).
     */
    const std::vector<IVec> &mappingVectors() const { return _mv; }

    /**
     * Symbolic pieces for code generation: SM(q) for a prime OV is
     *   sum_k (mv_k.q - rowLow(k)) * rowStride(k)
     * and for a non-prime OV the mod class (alpha.q mod g) is folded
     * in per the layout (interleaved: linear*g + class; blocked:
     * linear + class*modFactor()).
     */
    const IVec &alphaVector() const { return _alpha; }
    int64_t rowLow(size_t k) const { return _rows.lo()[k]; }
    int64_t rowStride(size_t k) const { return _rows.stride(k); }
    int64_t modFactor() const { return _mod_factor; }

    /** Human-readable form, e.g. "(0,2).q + (q0 mod 2) + 0". */
    std::string str() const;

  private:
    StorageMapping() = default;

    IVec _ov;
    ModLayout _layout = ModLayout::Interleaved;
    int64_t _g = 1;           ///< content(ov)
    IVec _alpha;              ///< class selector: alpha.q mod g
    std::vector<IVec> _mv;    ///< projection rows (1 in 2-D)
    BoxLayout _rows;          ///< the rows' ranges over the ISG
    int64_t _mod_factor = 0;  ///< multiplier of the mod class
    int64_t _cells = 0;
};

} // namespace uov

#endif // UOV_MAPPING_STORAGE_MAPPING_H
