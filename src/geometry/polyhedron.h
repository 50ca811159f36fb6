/**
 * @file
 * Convex polyhedra for iteration-space geometry.
 *
 * The paper's ISG (iteration space graph) domain is the set of integer
 * solutions of A*i <= b (Section 4.3, footnote 6); its extreme points
 * drive storage allocation, and its projections drive the known-bounds
 * search objective (Section 3.2).  This class supports exactly that:
 * construction from constraints, boxes or 2-D vertex lists, exact
 * rational vertex enumeration, dot-product ranges, projection widths,
 * and minimum width (the paper's P_M).
 *
 * The vertices are kept twice.  The exact rational table behind
 * vertices(), maxDot() and minDot() is the reference.  An integer
 * table -- per vertex one positive common denominator and d
 * numerators, in one flat array -- serves projectedRange() and so
 * projectionCount() and boundingBox(), which the branch-and-bound
 * search calls for every candidate OV.  Floor and ceil are monotone,
 * so floor(max) == max(floor) and the integer answer is the rational
 * one.  A step that overflows int64, or lands on INT64_MIN (which no
 * Rational numerator holds), hands the query to the rational path; on
 * integer vertices -- every box and 2-D hull -- both paths therefore
 * fail on exactly the same inputs, with the same error (DESIGN.md
 * section 6).
 */

#ifndef UOV_GEOMETRY_POLYHEDRON_H
#define UOV_GEOMETRY_POLYHEDRON_H

#include <optional>
#include <vector>

#include "geometry/box.h"
#include "geometry/ivec.h"
#include "geometry/matrix.h"
#include "geometry/rational.h"

namespace uov {

/** A point with rational coordinates (polyhedron vertices). */
using RationalVec = std::vector<Rational>;

/** Dot product of a rational point with an integer direction. */
Rational dotRI(const RationalVec &p, const IVec &dir);

/** Bounded convex polyhedron (polytope) in Z^d, given by A x <= b. */
class Polyhedron
{
  public:
    /** Polytope from explicit constraints. @pre A.rows() == b.dim() */
    static Polyhedron fromConstraints(IMatrix a, IVec b);

    /** Axis-aligned box lo <= x <= hi (inclusive). */
    static Polyhedron box(const IVec &lo, const IVec &hi);

    /**
     * 2-D polytope from its vertex list (any order); computes the
     * convex hull and the corresponding edge constraints.
     * @pre all vertices are 2-D
     */
    static Polyhedron fromVertices2D(const std::vector<IVec> &pts);

    size_t dim() const { return _a.cols(); }
    const IMatrix &constraintMatrix() const { return _a; }
    const IVec &constraintRhs() const { return _b; }

    /** True iff the integer point satisfies every constraint. */
    bool contains(const IVec &p) const;

    /**
     * The extreme points (vertices).  Computed lazily by enumerating
     * d-subsets of constraints; exact rational arithmetic.
     * @throws UovUserError if the polyhedron is unbounded or empty
     */
    const std::vector<RationalVec> &vertices() const;

    /** max over vertices of dir . x. */
    Rational maxDot(const IVec &dir) const;

    /** min over vertices of dir . x. */
    Rational minDot(const IVec &dir) const;

    /**
     * Number of integer values taken by dir . x over the polytope:
     * floor(maxDot) - ceil(minDot) + 1 (0 if the range is empty).
     * This is the integer-point count of the projection onto the line
     * spanned by dir -- the paper's projection measure when dir is a
     * (primitive) mapping vector.
     */
    int64_t projectionCount(const IVec &dir) const;

    /**
     * [ceil(minDot), floor(maxDot)] of dir . x, from the integer table
     * when every step fits int64, else from the rational vertices
     * (hi < lo when the range holds no integer).  The one row-range
     * rule: projectionCount, boundingBox and the storage mapping's
     * rows all read it.
     */
    void projectedRange(const IVec &dir, int64_t &lo, int64_t &hi) const;

    /**
     * Minimum projection count over candidate directions: the paper's
     * P_M ("minimum projection of the ISG on any hyperplane").  Exact
     * for 2-D polytopes (the minimizing direction is an edge normal);
     * for boxes it is the shortest side; otherwise returns 1 (a valid
     * but loose lower bound).
     */
    int64_t minProjectionCount() const;

    /** Integer bounding box [lo, hi] of the polytope. */
    void boundingBox(IVec &lo, IVec &hi) const;

    /**
     * Exact count of integer points inside, by scanning the bounding
     * box. @pre bounding-box volume <= maxScan
     */
    int64_t countIntegerPoints(int64_t max_scan = 100000000) const;

    /** Enumerate all integer points (small polytopes only). */
    std::vector<IVec> integerPoints(
        int64_t max_scan = kMaxScanPoints) const;

  private:
    Polyhedron(IMatrix a, IVec b);

    void computeVertices() const;

    IMatrix _a;
    IVec _b;
    mutable bool _verticesValid = false;
    mutable std::vector<RationalVec> _vertices;
    /** Per vertex: den > 0, then num[0..d-1] with vertex == num / den;
     *  empty when some vertex does not fit int64 that way. */
    mutable std::vector<int64_t> _intVertices;
};

} // namespace uov

#endif // UOV_GEOMETRY_POLYHEDRON_H
