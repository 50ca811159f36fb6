/**
 * @file
 * Unit tests for Polyhedron: vertex enumeration, containment,
 * projections, bounding boxes, integer-point scans.  Includes the
 * paper's Figure 3 parallelogram, and checks the integer projection
 * path against the exact rational vertices, overflow errors included.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "geometry/polyhedron.h"
#include "support/error.h"
#include "support/rng.h"

namespace uov {
namespace {

bool
hasVertex(const Polyhedron &p, std::initializer_list<int64_t> coords)
{
    RationalVec want;
    for (int64_t c : coords)
        want.push_back(Rational(c));
    const auto &vs = p.vertices();
    return std::find(vs.begin(), vs.end(), want) != vs.end();
}

TEST(Polyhedron, BoxVerticesAndContainment)
{
    Polyhedron box = Polyhedron::box(IVec{0, 0}, IVec{3, 2});
    EXPECT_EQ(box.vertices().size(), 4u);
    EXPECT_TRUE(hasVertex(box, {0, 0}));
    EXPECT_TRUE(hasVertex(box, {3, 2}));
    EXPECT_TRUE(hasVertex(box, {0, 2}));
    EXPECT_TRUE(hasVertex(box, {3, 0}));

    EXPECT_TRUE(box.contains(IVec{1, 1}));
    EXPECT_TRUE(box.contains(IVec{3, 2}));
    EXPECT_FALSE(box.contains(IVec{4, 0}));
    EXPECT_FALSE(box.contains(IVec{-1, 0}));
}

TEST(Polyhedron, EmptyBoxRejected)
{
    EXPECT_THROW(Polyhedron::box(IVec{2, 0}, IVec{1, 5}), UovUserError);
}

TEST(Polyhedron, BoxIn3D)
{
    Polyhedron box = Polyhedron::box(IVec{0, 0, 0}, IVec{1, 2, 3});
    EXPECT_EQ(box.vertices().size(), 8u);
    EXPECT_EQ(box.countIntegerPoints(), 2 * 3 * 4);
    EXPECT_EQ(box.minProjectionCount(), 2); // shortest side
}

TEST(Polyhedron, FromVertices2DBuildsHull)
{
    // A triangle plus an interior point that must be dropped.
    Polyhedron tri = Polyhedron::fromVertices2D(
        {IVec{0, 0}, IVec{4, 0}, IVec{0, 4}, IVec{1, 1}});
    EXPECT_EQ(tri.vertices().size(), 3u);
    EXPECT_TRUE(tri.contains(IVec{1, 1}));
    EXPECT_TRUE(tri.contains(IVec{0, 4}));
    EXPECT_FALSE(tri.contains(IVec{3, 3}));
    // Integer points of x,y >= 0, x+y <= 4: 15.
    EXPECT_EQ(tri.countIntegerPoints(), 15);
}

TEST(Polyhedron, DegenerateHullRejected)
{
    EXPECT_THROW(
        Polyhedron::fromVertices2D({IVec{0, 0}, IVec{1, 1}, IVec{2, 2}}),
        UovUserError);
}

TEST(Polyhedron, ProjectionCounts)
{
    Polyhedron box = Polyhedron::box(IVec{0, 0}, IVec{9, 4});
    EXPECT_EQ(box.projectionCount(IVec{1, 0}), 10);
    EXPECT_EQ(box.projectionCount(IVec{0, 1}), 5);
    // Along (1,1): values 0..13.
    EXPECT_EQ(box.projectionCount(IVec{1, 1}), 14);
    // Figure 6: rectangle (0,0)-(n,m), mv=(-1,1): n+m+1 values.
    int64_t n = 9, m = 4;
    EXPECT_EQ(box.projectionCount(IVec{-1, 1}), n + m + 1);
}

TEST(Polyhedron, Figure3Parallelogram)
{
    // The ISG of Figure 3: corners (1,1), (1,6), (10,4), (10,9).
    Polyhedron isg = Polyhedron::fromVertices2D(
        {IVec{1, 1}, IVec{1, 6}, IVec{10, 4}, IVec{10, 9}});
    EXPECT_EQ(isg.vertices().size(), 4u);

    // ov1 = (3,1): mv = (-1,3); values at corners: 2, 17, 2, 17.
    EXPECT_EQ(isg.projectionCount(IVec{-1, 3}), 16);
    // ov2 = (3,0): primitive mv = (0,1); values 1..9.
    EXPECT_EQ(isg.projectionCount(IVec{0, 1}), 9);
}

TEST(Polyhedron, MinProjection2DIsEdgeNormalMinimum)
{
    Polyhedron box = Polyhedron::box(IVec{0, 0}, IVec{9, 4});
    EXPECT_EQ(box.minProjectionCount(), 5);
}

TEST(Polyhedron, BoundingBox)
{
    Polyhedron tri = Polyhedron::fromVertices2D(
        {IVec{1, 2}, IVec{5, 3}, IVec{2, 7}});
    IVec lo, hi;
    tri.boundingBox(lo, hi);
    EXPECT_EQ(lo, (IVec{1, 2}));
    EXPECT_EQ(hi, (IVec{5, 7}));
}

TEST(Polyhedron, IntegerPointsMatchManualCount)
{
    Polyhedron box = Polyhedron::box(IVec{-1, -1}, IVec{1, 1});
    auto pts = box.integerPoints();
    EXPECT_EQ(pts.size(), 9u);
}

TEST(Polyhedron, ScanLimitEnforced)
{
    Polyhedron big = Polyhedron::box(IVec{0, 0}, IVec{100000, 100000});
    EXPECT_THROW(big.integerPoints(1000), UovUserError);
}

TEST(Polyhedron, UnboundedRejected)
{
    // Single half-plane: unbounded, no vertices.
    IMatrix a({{1, 0}});
    EXPECT_THROW(
        Polyhedron::fromConstraints(a, IVec{5}).vertices(),
        UovUserError);
}

TEST(Polyhedron, MaxMinDotRational)
{
    // Triangle with a rational chebyshev-ish vertex: constraints
    // x >= 0, y >= 0, 2x + 3y <= 7 has vertex (0, 7/3).
    IMatrix a({{-1, 0}, {0, -1}, {2, 3}});
    Polyhedron p = Polyhedron::fromConstraints(a, IVec{0, 0, 7});
    EXPECT_EQ(p.maxDot(IVec{0, 1}), Rational(7, 3));
    EXPECT_EQ(p.minDot(IVec{0, 1}), Rational(0));
    EXPECT_EQ(p.projectionCount(IVec{0, 1}), 3); // y in {0, 1, 2}
}

/** floor(max) and ceil(min) of dir . v over vertices(), by dotRI. */
void
referenceRange(const Polyhedron &p, const IVec &dir, int64_t &lo,
               int64_t &hi)
{
    const auto &vs = p.vertices();
    Rational max_dot = dotRI(vs[0], dir);
    Rational min_dot = max_dot;
    for (const RationalVec &v : vs) {
        Rational x = dotRI(v, dir);
        max_dot = std::max(max_dot, x);
        min_dot = std::min(min_dot, x);
    }
    hi = max_dot.floor();
    lo = min_dot.ceil();
}

/** projectionCount and boundingBox agree with the rational reference. */
void
expectMatchesReference(const Polyhedron &p, SplitMix64 &rng,
                       const std::string &what)
{
    size_t d = p.dim();
    for (int k = 0; k < 40; ++k) {
        IVec dir(d);
        for (size_t c = 0; c < d; ++c)
            dir[c] = rng.nextBelow(4) == 0 ? 0 : rng.nextInRange(-7, 7);
        int64_t lo = 0, hi = 0;
        referenceRange(p, dir, lo, hi);
        EXPECT_EQ(p.projectionCount(dir), hi < lo ? 0 : hi - lo + 1)
            << what << " dir " << dir.str();
    }
    IVec lo, hi;
    p.boundingBox(lo, hi);
    for (size_t c = 0; c < d; ++c) {
        IVec axis(d);
        axis[c] = 1;
        int64_t want_lo = 0, want_hi = 0;
        referenceRange(p, axis, want_lo, want_hi);
        EXPECT_EQ(lo[c], want_lo) << what << " axis " << c;
        EXPECT_EQ(hi[c], want_hi) << what << " axis " << c;
    }
}

TEST(Polyhedron, IntegerPathMatchesRationalReference)
{
    SplitMix64 rng(0x5EED14);
    for (int iter = 0; iter < 60; ++iter) {
        // Boxes in 2-4 dimensions, corners often negative.
        size_t d = 2 + rng.nextBelow(3);
        IVec lo(d), hi(d);
        for (size_t c = 0; c < d; ++c) {
            lo[c] = rng.nextInRange(-50, 10);
            hi[c] = lo[c] + rng.nextInRange(0, 60);
        }
        expectMatchesReference(Polyhedron::box(lo, hi), rng,
                               "box " + lo.str() + ".." + hi.str());

        // 2-D hulls of random point clouds (integer vertices).
        std::vector<IVec> pts;
        for (int i = 0; i < 6; ++i)
            pts.push_back(IVec{rng.nextInRange(-30, 30),
                               rng.nextInRange(-30, 30)});
        try {
            expectMatchesReference(Polyhedron::fromVertices2D(pts), rng,
                                   "hull");
        } catch (const UovUserError &) {
            // A collinear draw has no 2-D hull; skip it.
        }

        // Simplices x >= l, a . x <= b: fractional vertices such as
        // (0, 7/3), in 2-D and 3-D.
        size_t k = 2 + rng.nextBelow(2);
        IMatrix a(k + 1, k);
        IVec b(k + 1);
        int64_t corner = 0; // a . x at the lower corner
        for (size_t c = 0; c < k; ++c) {
            a(c, c) = -1;
            b[c] = rng.nextInRange(-5, 5); // x_c >= -b[c]
            a(k, c) = rng.nextInRange(1, 9);
            corner -= a(k, c) * b[c];
        }
        b[k] = corner + rng.nextInRange(1, 150);
        expectMatchesReference(Polyhedron::fromConstraints(a, b), rng,
                               "simplex " + a.str() + " <= " + b.str());
    }
}

/** The overflow message of @p fn ("" when it does not throw). */
template <typename Fn>
std::string
overflowMessage(Fn fn)
{
    try {
        fn();
    } catch (const UovOverflowError &e) {
        return e.what();
    }
    return "";
}

TEST(Polyhedron, IntegerPathOverflowStillThrows)
{
    int64_t big = int64_t{1} << 62;
    Polyhedron huge = Polyhedron::box(IVec{0, 0}, IVec{big, big});
    EXPECT_THROW(huge.projectionCount(IVec{3, 3}), UovOverflowError);
    EXPECT_THROW(huge.projectionCount(IVec{1, 1}), UovOverflowError);
    EXPECT_THROW(huge.projectionCount(IVec{1, -1}), UovOverflowError);
    EXPECT_EQ(huge.projectionCount(IVec{1, 0}), big + 1);

    // Values the rational path rejects although they fit int64: a
    // direction component, a product, or a partial sum of INT64_MIN
    // (a Rational numerator never holds it).  The integer path must
    // fail the same way, with the reference's own message.
    Polyhedron unit = Polyhedron::box(IVec{0, 0}, IVec{1, 1});
    Polyhedron low = Polyhedron::box(IVec{0, -big}, IVec{1, 0});
    Polyhedron corner = Polyhedron::box(IVec{-big, -big}, IVec{0, 0});
    struct Case
    {
        const Polyhedron *p;
        IVec dir;
    };
    for (const Case &c : {Case{&unit, IVec{INT64_MIN, 0}},
                          Case{&low, IVec{-1, 2}}, Case{&low, IVec{0, 2}},
                          Case{&corner, IVec{1, 1}}}) {
        std::string want =
            overflowMessage([&] { (void)c.p->maxDot(c.dir); });
        ASSERT_FALSE(want.empty()) << c.dir.str();
        EXPECT_EQ(overflowMessage(
                      [&] { (void)c.p->projectionCount(c.dir); }),
                  want)
            << c.dir.str();
    }
}

TEST(Polyhedron, VerticesBeyondTheIntegerTableUseTheRationalPath)
{
    // The vertex (1/p, 1/q) has no int64 common denominator (p*q >
    // 2^63), yet the rational path answers projections that avoid
    // adding 1/p to 1/q.
    int64_t p = 4294967311, q = 4294967357;
    IMatrix a({{p, 0}, {0, q}, {-1, 0}, {0, -1}});
    Polyhedron tiny = Polyhedron::fromConstraints(a, IVec{1, 1, 0, 0});
    EXPECT_EQ(tiny.vertices().size(), 4u);
    EXPECT_EQ(tiny.projectionCount(IVec{1, 0}), 1);
    EXPECT_EQ(tiny.projectionCount(IVec{0, -3}), 1);
    IVec lo, hi;
    tiny.boundingBox(lo, hi);
    EXPECT_EQ(lo, (IVec{0, 0}));
    EXPECT_EQ(hi, (IVec{0, 0}));
    EXPECT_THROW(tiny.projectionCount(IVec{1, 1}), UovOverflowError);
}

} // namespace
} // namespace uov
