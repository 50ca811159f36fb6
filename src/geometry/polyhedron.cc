#include "geometry/polyhedron.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "geometry/box.h"
#include "support/checked.h"
#include "support/error.h"

namespace uov {

Rational
dotRI(const RationalVec &p, const IVec &dir)
{
    UOV_CHECK(p.size() == dir.dim(), "dimension mismatch in dotRI");
    Rational acc(0);
    for (size_t i = 0; i < p.size(); ++i)
        acc = acc + p[i] * Rational(dir[i]);
    return acc;
}

Polyhedron::Polyhedron(IMatrix a, IVec b) : _a(std::move(a)), _b(std::move(b))
{
    UOV_REQUIRE(_a.rows() == _b.dim(),
                "constraint matrix rows " << _a.rows()
                    << " != rhs dimension " << _b.dim());
    UOV_REQUIRE(_a.cols() >= 1, "zero-dimensional polyhedron");
}

Polyhedron
Polyhedron::fromConstraints(IMatrix a, IVec b)
{
    return Polyhedron(std::move(a), std::move(b));
}

Polyhedron
Polyhedron::box(const IVec &lo, const IVec &hi)
{
    UOV_REQUIRE(lo.dim() == hi.dim(), "box corner dimension mismatch");
    size_t d = lo.dim();
    for (size_t i = 0; i < d; ++i)
        UOV_REQUIRE(lo[i] <= hi[i], "empty box in dimension " << i);
    IMatrix a(2 * d, d);
    IVec b(2 * d);
    for (size_t i = 0; i < d; ++i) {
        a(2 * i, i) = 1; //  x_i <= hi_i
        b[2 * i] = hi[i];
        a(2 * i + 1, i) = -1; // -x_i <= -lo_i
        b[2 * i + 1] = checkedNeg(lo[i]);
    }
    return Polyhedron(std::move(a), std::move(b));
}

namespace {

/** 2-D cross product (p1-p0) x (p2-p0). */
int64_t
cross2(const IVec &p0, const IVec &p1, const IVec &p2)
{
    int64_t ax = checkedSub(p1[0], p0[0]);
    int64_t ay = checkedSub(p1[1], p0[1]);
    int64_t bx = checkedSub(p2[0], p0[0]);
    int64_t by = checkedSub(p2[1], p0[1]);
    return checkedSub(checkedMul(ax, by), checkedMul(ay, bx));
}

/** Andrew monotone chain convex hull, CCW, no duplicate endpoints. */
std::vector<IVec>
convexHull2D(std::vector<IVec> pts)
{
    std::sort(pts.begin(), pts.end(),
              [](const IVec &a, const IVec &b) {
                  return a[0] != b[0] ? a[0] < b[0] : a[1] < b[1];
              });
    pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
    size_t n = pts.size();
    if (n <= 2)
        return pts;

    std::vector<IVec> hull(2 * n);
    size_t k = 0;
    for (size_t i = 0; i < n; ++i) { // lower
        while (k >= 2 && cross2(hull[k - 2], hull[k - 1], pts[i]) <= 0)
            --k;
        hull[k++] = pts[i];
    }
    size_t lower = k + 1;
    for (size_t i = n - 1; i-- > 0;) { // upper
        while (k >= lower && cross2(hull[k - 2], hull[k - 1], pts[i]) <= 0)
            --k;
        hull[k++] = pts[i];
    }
    hull.resize(k - 1);
    return hull;
}

} // namespace

Polyhedron
Polyhedron::fromVertices2D(const std::vector<IVec> &pts)
{
    UOV_REQUIRE(!pts.empty(), "fromVertices2D with no points");
    for (const auto &p : pts)
        UOV_REQUIRE(p.dim() == 2, "fromVertices2D expects 2-D points");

    std::vector<IVec> hull = convexHull2D(pts);
    UOV_REQUIRE(hull.size() >= 3,
                "fromVertices2D needs a full-dimensional polytope, hull has "
                    << hull.size() << " vertices");

    // For each CCW edge (u -> w), the inward side is the left side; the
    // constraint is n . x <= n . u with n the outward (right) normal.
    size_t m = hull.size();
    IMatrix a(m, 2);
    IVec b(m);
    for (size_t i = 0; i < m; ++i) {
        const IVec &u = hull[i];
        const IVec &w = hull[(i + 1) % m];
        int64_t ex = checkedSub(w[0], u[0]);
        int64_t ey = checkedSub(w[1], u[1]);
        // Outward normal of a CCW edge is (ey, -ex).
        a(i, 0) = ey;
        a(i, 1) = checkedNeg(ex);
        b[i] = checkedAdd(checkedMul(a(i, 0), u[0]),
                          checkedMul(a(i, 1), u[1]));
    }
    return Polyhedron(std::move(a), std::move(b));
}

bool
Polyhedron::contains(const IVec &p) const
{
    UOV_REQUIRE(p.dim() == dim(), "point dimension mismatch");
    for (size_t r = 0; r < _a.rows(); ++r) {
        if (_a.row(r).dot(p) > _b[r])
            return false;
    }
    return true;
}

namespace {

/**
 * Solve the square rational system m x = rhs by Gaussian elimination.
 * Returns nullopt when the system is singular.
 */
std::optional<RationalVec>
solveSquare(std::vector<RationalVec> m, RationalVec rhs)
{
    size_t n = rhs.size();
    for (size_t col = 0; col < n; ++col) {
        size_t piv = col;
        while (piv < n && m[piv][col] == Rational(0))
            ++piv;
        if (piv == n)
            return std::nullopt;
        std::swap(m[piv], m[col]);
        std::swap(rhs[piv], rhs[col]);
        Rational p = m[col][col];
        for (size_t r = 0; r < n; ++r) {
            if (r == col || m[r][col] == Rational(0))
                continue;
            Rational f = m[r][col] / p;
            for (size_t c = col; c < n; ++c)
                m[r][c] = m[r][c] - f * m[col][c];
            rhs[r] = rhs[r] - f * rhs[col];
        }
    }
    RationalVec x(n);
    for (size_t i = 0; i < n; ++i)
        x[i] = rhs[i] / m[i][i];
    return x;
}

/**
 * Append each vertex as its positive common denominator followed by
 * its numerators over it.  False when a value does not fit int64.
 */
bool
appendIntegerVertices(const std::vector<RationalVec> &verts,
                      std::vector<int64_t> &out)
{
    out.reserve(verts.size() * (verts[0].size() + 1));
    for (const RationalVec &v : verts) {
        int64_t den = 1;
        for (const Rational &x : v)
            if (__builtin_mul_overflow(den / std::gcd(den, x.den()),
                                       x.den(), &den))
                return false;
        out.push_back(den);
        for (const Rational &x : v) {
            int64_t num = 0;
            if (__builtin_mul_overflow(x.num(), den / x.den(), &num))
                return false;
            out.push_back(num);
        }
    }
    return true;
}

/**
 * acc += a * b with checkedMul/checkedAdd's overflow tests, returning
 * false instead of throwing -- also when the direction component b,
 * the product or the sum is INT64_MIN: dotRI rejects those as well (a
 * Rational numerator must be negatable), and ceilDiv negates.
 */
inline bool
mulAddFits(int64_t &acc, int64_t a, int64_t b)
{
    int64_t term = 0;
    return b != INT64_MIN && !__builtin_mul_overflow(a, b, &term) &&
           term != INT64_MIN && !__builtin_add_overflow(acc, term, &acc) &&
           acc != INT64_MIN;
}

/**
 * [ceil(min), floor(max)] of (num . dir) / den over an integer vertex
 * table; exact because floor and ceil are monotone.  False when the
 * table is empty or a step does not fit (see mulAddFits).
 */
bool
integerRange(const std::vector<int64_t> &table, const IVec &dir,
             int64_t &lo, int64_t &hi)
{
    const size_t d = dir.dim();
    const int64_t *x = dir.data();
    lo = INT64_MAX;
    hi = INT64_MIN;
    for (size_t at = 0; at < table.size(); at += d + 1) {
        const int64_t den = table[at];
        const int64_t *num = &table[at + 1];
        int64_t dot = 0;
        for (size_t c = 0; c < d; ++c)
            if (!mulAddFits(dot, num[c], x[c]))
                return false;
        hi = std::max(hi, floorDiv(dot, den));
        lo = std::min(lo, ceilDiv(dot, den));
    }
    return !table.empty();
}

} // namespace

void
Polyhedron::computeVertices() const
{
    size_t d = dim();
    size_t m = _a.rows();
    UOV_REQUIRE(m >= d, "polyhedron with fewer constraints than dimensions "
                        "cannot be bounded");

    std::vector<RationalVec> verts;
    std::vector<size_t> pick(d);

    // Enumerate all d-subsets of constraints.
    std::vector<size_t> idx(d);
    for (size_t i = 0; i < d; ++i)
        idx[i] = i;
    for (;;) {
        // Solve the active set.
        std::vector<RationalVec> sys(d, RationalVec(d));
        RationalVec rhs(d);
        for (size_t r = 0; r < d; ++r) {
            for (size_t c = 0; c < d; ++c)
                sys[r][c] = Rational(_a(idx[r], c));
            rhs[r] = Rational(_b[idx[r]]);
        }
        auto sol = solveSquare(std::move(sys), std::move(rhs));
        if (sol) {
            bool feasible = true;
            for (size_t r = 0; r < m && feasible; ++r) {
                Rational lhs(0);
                for (size_t c = 0; c < d; ++c)
                    lhs = lhs + Rational(_a(r, c)) * (*sol)[c];
                if (lhs > Rational(_b[r]))
                    feasible = false;
            }
            if (feasible &&
                std::find(verts.begin(), verts.end(), *sol) == verts.end())
                verts.push_back(*sol);
        }
        // Next combination.
        size_t i = d;
        while (i-- > 0) {
            if (idx[i] != i + m - d) {
                ++idx[i];
                for (size_t j = i + 1; j < d; ++j)
                    idx[j] = idx[j - 1] + 1;
                break;
            }
            if (i == 0) {
                i = SIZE_MAX;
                break;
            }
        }
        if (i == SIZE_MAX)
            break;
    }

    UOV_REQUIRE(!verts.empty(), "polyhedron is empty or unbounded (no "
                                "vertices found)");
    if (!appendIntegerVertices(verts, _intVertices))
        _intVertices.clear();
    _vertices = std::move(verts);
    _verticesValid = true;
}

const std::vector<RationalVec> &
Polyhedron::vertices() const
{
    if (!_verticesValid)
        computeVertices();
    return _vertices;
}

Rational
Polyhedron::maxDot(const IVec &dir) const
{
    const auto &vs = vertices();
    Rational best = dotRI(vs[0], dir);
    for (size_t i = 1; i < vs.size(); ++i) {
        Rational v = dotRI(vs[i], dir);
        if (v > best)
            best = v;
    }
    return best;
}

Rational
Polyhedron::minDot(const IVec &dir) const
{
    const auto &vs = vertices();
    Rational best = dotRI(vs[0], dir);
    for (size_t i = 1; i < vs.size(); ++i) {
        Rational v = dotRI(vs[i], dir);
        if (v < best)
            best = v;
    }
    return best;
}

void
Polyhedron::projectedRange(const IVec &dir, int64_t &lo, int64_t &hi) const
{
    vertices(); // fills both tables
    if (dir.dim() == dim() && integerRange(_intVertices, dir, lo, hi))
        return;
    // The exact path decides, and throws its own error if it fails too.
    hi = maxDot(dir).floor();
    lo = minDot(dir).ceil();
}

int64_t
Polyhedron::projectionCount(const IVec &dir) const
{
    int64_t lo = 0, hi = 0;
    projectedRange(dir, lo, hi);
    return hi < lo ? 0 : checkedAdd(checkedSub(hi, lo), 1);
}

int64_t
Polyhedron::minProjectionCount() const
{
    if (dim() == 2) {
        // The minimizing direction for a 2-D polytope is normal to one
        // of its edges; our constraint normals are exactly those (for
        // hull-built polytopes) or a superset (boxes / general).
        int64_t best = INT64_MAX;
        for (size_t r = 0; r < _a.rows(); ++r) {
            IVec n = _a.row(r);
            if (n.isZero())
                continue;
            int64_t g = n.content();
            IVec prim = n.dividedBy(g);
            best = std::min(best, projectionCount(prim));
        }
        UOV_CHECK(best != INT64_MAX, "no usable constraint normals");
        return best;
    }

    // Boxes in any dimension: the shortest side, detected through the
    // axis projections; otherwise fall back to the trivial lower bound.
    bool axis_aligned = true;
    for (size_t r = 0; r < _a.rows() && axis_aligned; ++r) {
        int nonzero = 0;
        for (size_t c = 0; c < _a.cols(); ++c)
            if (_a(r, c) != 0)
                ++nonzero;
        if (nonzero != 1)
            axis_aligned = false;
    }
    if (axis_aligned) {
        int64_t best = INT64_MAX;
        for (size_t c = 0; c < dim(); ++c) {
            IVec axis(dim());
            axis[c] = 1;
            best = std::min(best, projectionCount(axis));
        }
        return best;
    }
    return 1;
}

void
Polyhedron::boundingBox(IVec &lo, IVec &hi) const
{
    size_t d = dim();
    lo = IVec(d);
    hi = IVec(d);
    for (size_t c = 0; c < d; ++c) {
        IVec axis(d);
        axis[c] = 1;
        projectedRange(axis, lo[c], hi[c]);
    }
}

int64_t
Polyhedron::countIntegerPoints(int64_t max_scan) const
{
    return static_cast<int64_t>(integerPoints(max_scan).size());
}

std::vector<IVec>
Polyhedron::integerPoints(int64_t max_scan) const
{
    IVec lo, hi;
    boundingBox(lo, hi);
    int64_t volume = boxVolume(lo, hi);
    UOV_REQUIRE(volume <= max_scan,
                "integer-point scan over " << volume
                    << " candidates exceeds limit " << max_scan);

    std::vector<IVec> out;
    scanBox(lo, hi, [&](const IVec &p) {
        if (contains(p))
            out.push_back(p);
    });
    return out;
}

} // namespace uov
