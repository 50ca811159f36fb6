/**
 * @file
 * Integer boxes and balls: the one place the library enumerates them.
 *
 * Wherever the paper reasons exhaustively the code walks a small
 * integer set: the DONE/DEAD sets of Figure 2, the exhaustive best-UOV
 * reference of Section 3.2, the Section 6 schedule-specific and
 * modular baselines, the Section 7 multi-statement and shared UOVs,
 * the schedules' box scans and the interpreter that every generated
 * kernel is checked against.  They all enumerate through scanBox or
 * scanBall, test membership with inBox and count with boxVolume, so
 * one visit order, one size limit and one overflow rule hold
 * everywhere.  (The fuzz oracles, tests and benches keep their own
 * loops on purpose: they check this code.)
 */

#ifndef UOV_GEOMETRY_BOX_H
#define UOV_GEOMETRY_BOX_H

#include <cstdint>
#include <type_traits>

#include "geometry/isqrt.h"
#include "geometry/ivec.h"
#include "support/checked.h"
#include "support/error.h"

namespace uov {

/** Largest point count an exhaustive integer scan may walk. */
constexpr int64_t kMaxScanPoints = 10000000;

/** Is @p p inside the box [lo, hi] (bounds included)? */
inline bool
inBox(const IVec &p, const IVec &lo, const IVec &hi)
{
    for (size_t c = 0; c < p.dim(); ++c)
        if (p[c] < lo[c] || p[c] > hi[c])
            return false;
    return true;
}

/** Integer points of [lo, hi]: 0 when lo[c] > hi[c] on some axis,
 *  UovOverflowError when the count does not fit int64. */
inline int64_t
boxVolume(const IVec &lo, const IVec &hi)
{
    for (size_t c = 0; c < lo.dim(); ++c)
        if (lo[c] > hi[c])
            return 0;
    int64_t n = 1;
    for (size_t c = 0; c < lo.dim(); ++c)
        n = checkedMul(n, checkedAdd(checkedSub(hi[c], lo[c]), 1));
    return n;
}

namespace detail {

/** visit(p), then false when a bool-returning visitor asks to stop. */
template <typename Visit>
bool
keepScanning(Visit &visit, const IVec &p)
{
    if constexpr (std::is_void_v<
                      std::invoke_result_t<Visit &, const IVec &>>) {
        visit(p);
        return true;
    } else {
        return static_cast<bool>(visit(p));
    }
}

/**
 * Half-width r = isqrt64(radius_sq) + 1 of the cube [-r, r]^d that
 * scanBall walks.  Throws UovUserError when the cube holds more than
 * kMaxScanPoints points; the count never overflows (2r + 1 < 2^33 and
 * the product stops at the limit).
 */
inline int64_t
ballScanRadius(size_t d, int64_t radius_sq)
{
    int64_t r = isqrt64(radius_sq) + 1;
    int64_t side = 2 * r + 1;
    int64_t points = 1;
    for (size_t c = 0; c < d; ++c) {
        UOV_REQUIRE(points <= kMaxScanPoints / side,
                    "ball scan over the cube [-" << r << ", " << r
                        << "]^" << d << " exceeds limit "
                        << kMaxScanPoints << " points");
        points *= side;
    }
    return r;
}

} // namespace detail

/**
 * Visit every point of [lo, hi] in lexicographic order (the last
 * coordinate varies fastest); nothing when the box is empty.  The
 * visitor takes a const IVec& that is only valid during the call.  A
 * visitor returning bool stops the scan by returning false.
 * @return false iff the visitor stopped the scan
 */
template <typename Visit>
bool
scanBox(const IVec &lo, const IVec &hi, Visit &&visit)
{
    size_t d = lo.dim();
    UOV_CHECK(hi.dim() == d, "box corners " << lo.str() << " and "
                                            << hi.str()
                                            << " differ in dimension");
    for (size_t c = 0; c < d; ++c)
        if (lo[c] > hi[c])
            return true;
    IVec p = lo;
    for (;;) {
        if (!detail::keepScanning(visit, p))
            return false;
        size_t level = d;
        for (;;) {
            if (level-- == 0)
                return true;
            if (p[level] < hi[level]) {
                ++p[level];
                break;
            }
            p[level] = lo[level];
        }
    }
}

/**
 * Visit every nonzero w in Z^d with |w|^2 <= radius_sq, in
 * lexicographic order over the cube [-r, r]^d with r =
 * isqrt64(radius_sq) + 1.  Throws UovUserError, before visiting
 * anything, when that cube holds more than kMaxScanPoints points.
 * Stops early like scanBox.
 */
template <typename Visit>
bool
scanBall(size_t d, int64_t radius_sq, Visit &&visit)
{
    int64_t r = detail::ballScanRadius(d, radius_sq);
    IVec lo(d), hi(d);
    for (size_t c = 0; c < d; ++c) {
        lo[c] = -r;
        hi[c] = r;
    }
    return scanBox(lo, hi, [&](const IVec &w) {
        if (w.isZero() || w.normSquared() > radius_sq)
            return true;
        return detail::keepScanning(visit, w);
    });
}

} // namespace uov

#endif // UOV_GEOMETRY_BOX_H
