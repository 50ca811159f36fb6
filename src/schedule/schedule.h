/**
 * @file
 * Loop schedules: total execution orders over an iteration-space box.
 *
 * The UOV's defining property is schedule-independence: the storage
 * mapping stays correct under *any* legal schedule.  This module
 * provides the schedule family the claim is tested against: one box
 * scan covering loop permutations, unimodular (skewed) transformations
 * and multi-level tiling of a transformed space; affine time mappings,
 * wavefronts included; and random topological orders of the
 * dependence graph.
 */

#ifndef UOV_SCHEDULE_SCHEDULE_H
#define UOV_SCHEDULE_SCHEDULE_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/stencil.h"
#include "geometry/ivec.h"
#include "geometry/matrix.h"

namespace uov {

/** Visitor for iteration points, called in execution order. */
using IterationVisitor = std::function<void(const IVec &)>;

/** A total execution order over integer boxes. */
class Schedule
{
  public:
    virtual ~Schedule() = default;

    /** Human-readable name for reports. */
    virtual std::string name() const = 0;

    /** Enumerate every point of [lo, hi] exactly once, in order. */
    virtual void forEach(const IVec &lo, const IVec &hi,
                         const IterationVisitor &visit) const = 0;
};

/**
 * Box scan of a unimodular transformed space y = T*q, tiled at any
 * number of levels (Section 2's "atomic units of execution"; the
 * hierarchical tiling of Section 7's future work).  levels[0] is the
 * outermost tile grid and each level holds one tile size per
 * dimension, 0 meaning "not tiled at this level".  Each level cuts the
 * current box into the tiles of its grid, clipped to the box, and runs
 * them in lexicographic order of tile index; the innermost boxes are
 * scanned in lexicographic order of y, visiting T^-1 y whenever it
 * lies in [lo, hi].  T unimodular makes this a bijection on Z^d, so
 * every box point appears exactly once.
 *
 * With no levels this is a plain lexicographic order of y: T = I is
 * the original program order, a permutation matrix a loop interchange
 * (ScheduleBuilder::reorder), a skew a skewed sweep.  With levels
 * it is legal when tilingLegal(T, stencil) holds, whatever the number
 * of levels.
 */
class TiledSchedule : public Schedule
{
  public:
    /**
     * @throws UovUserError unless @p transform is square and
     *         unimodular and every level holds one size >= 0 per
     *         dimension
     */
    explicit TiledSchedule(IMatrix transform,
                           std::vector<std::vector<int64_t>> levels = {},
                           std::string label = "");

    std::string name() const override;

    /** @throws UovOverflowError when a transformed bound or tile
     *          corner of the box leaves int64 */
    void forEach(const IVec &lo, const IVec &hi,
                 const IterationVisitor &visit) const override;

  private:
    IMatrix _t;
    IMatrix _t_inv;
    std::vector<std::vector<int64_t>> _levels;
    std::string _label;
};

/**
 * Multi-dimensional affine schedule: points ordered lexicographically
 * by (h_1.q, ..., h_r.q), remaining ties broken by lexicographic
 * point order.  One row is a wavefront h.q; more rows subsume
 * non-unimodular time mappings like ((2,1).q, (0,1).q).  Legal iff
 * every dependence maps to a lexicographically positive tuple.
 */
class AffineSchedule : public Schedule
{
  public:
    explicit AffineSchedule(std::vector<IVec> rows,
                            std::string label = "");

    std::string name() const override;
    void forEach(const IVec &lo, const IVec &hi,
                 const IterationVisitor &visit) const override;

    const std::vector<IVec> &rows() const { return _rows; }

    /** The schedule tuple of a point. */
    std::vector<int64_t> timeOf(const IVec &q) const;

  private:
    std::vector<IVec> _rows;
    std::string _label;
};

/**
 * Algebraic OV-legality under an AffineSchedule (the r-dimensional
 * generalization of ovLegalForLinearSchedule): ov is safe iff every
 * dependence v != ov satisfies time(v) <lex time(ov).  Conservative
 * about ties, exactly like the 1-D rule.
 * @pre every dependence has lexicographically positive time
 */
bool ovLegalForAffineSchedule(const AffineSchedule &schedule,
                              const IVec &ov, const Stencil &stencil);

/**
 * A uniformly random topological order of the dependence graph: every
 * prefix respects the stencil, nothing else is promised.  The
 * adversarial end of "any legal schedule".
 */
class RandomTopoSchedule : public Schedule
{
  public:
    RandomTopoSchedule(Stencil stencil, uint64_t seed);

    std::string name() const override;
    void forEach(const IVec &lo, const IVec &hi,
                 const IterationVisitor &visit) const override;

  private:
    Stencil _stencil;
    uint64_t _seed;
};

} // namespace uov

#endif // UOV_SCHEDULE_SCHEDULE_H
