#include "schedule/schedule.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "geometry/box.h"
#include "support/checked.h"
#include "support/error.h"
#include "support/rng.h"

namespace uov {

namespace {

/** Bounding box of T*[lo, hi] from its transformed corners. */
void
transformedBounds(const IMatrix &t, const IVec &lo, const IVec &hi,
                  IVec &tlo, IVec &thi)
{
    size_t d = lo.dim();
    tlo = IVec(d);
    thi = IVec(d);
    for (size_t r = 0; r < d; ++r) {
        int64_t mn = 0, mx = 0;
        for (size_t c = 0; c < d; ++c) {
            int64_t a = t(r, c);
            mn = checkedAdd(mn, checkedMul(a, a >= 0 ? lo[c] : hi[c]));
            mx = checkedAdd(mx, checkedMul(a, a >= 0 ? hi[c] : lo[c]));
        }
        tlo[r] = mn;
        thi[r] = mx;
    }
}

/**
 * Scan the box [blo, bhi] of the transformed space through tile levels
 * levels[level..], calling scan(ylo, yhi) on each innermost box in
 * execution order.  A level grids its box at multiples of its sizes
 * (one tile per untiled dimension) and clips every tile to the box;
 * the grid spans exactly the tiles that meet a non-empty box, so no
 * clipped tile is empty.
 */
template <typename Scan>
void
scanTiles(const std::vector<std::vector<int64_t>> &levels, size_t level,
          const IVec &blo, const IVec &bhi, Scan &scan)
{
    if (level == levels.size()) {
        scan(blo, bhi);
        return;
    }
    const std::vector<int64_t> &sizes = levels[level];
    size_t d = blo.dim();
    IVec grid_lo(d), grid_hi(d);
    for (size_t c = 0; c < d; ++c) {
        if (sizes[c] > 0) {
            grid_lo[c] = floorDiv(blo[c], sizes[c]);
            grid_hi[c] = floorDiv(bhi[c], sizes[c]);
        }
    }
    scanBox(grid_lo, grid_hi, [&](const IVec &tile) {
        IVec ylo = blo, yhi = bhi;
        for (size_t c = 0; c < d; ++c) {
            if (sizes[c] > 0) {
                int64_t first = checkedMul(tile[c], sizes[c]);
                ylo[c] = std::max(blo[c], first);
                yhi[c] = std::min(bhi[c],
                                  checkedAdd(first, sizes[c] - 1));
            }
        }
        scanTiles(levels, level + 1, ylo, yhi, scan);
    });
}

} // namespace

TiledSchedule::TiledSchedule(IMatrix transform,
                             std::vector<std::vector<int64_t>> levels,
                             std::string label)
    : _t(std::move(transform)), _levels(std::move(levels)),
      _label(std::move(label))
{
    UOV_REQUIRE(_t.rows() == _t.cols(), "transform must be square");
    UOV_REQUIRE(_t.isUnimodular(),
                "schedule transform must be unimodular to enumerate "
                "every iteration exactly once");
    for (const auto &sizes : _levels) {
        UOV_REQUIRE(sizes.size() == _t.rows(),
                    "tile level has " << sizes.size()
                                      << " sizes for a depth-"
                                      << _t.rows() << " transform");
        for (int64_t s : sizes)
            UOV_REQUIRE(s >= 0,
                        "tile sizes must be >= 0 (0 = not tiled), got "
                            << s);
    }
    _t_inv = _t.inverseUnimodular();
}

std::string
TiledSchedule::name() const
{
    std::ostringstream oss;
    oss << (_label.empty() ? "scan" + _t.str() : _label);
    for (const auto &sizes : _levels) {
        oss << "[";
        for (size_t i = 0; i < sizes.size(); ++i)
            oss << (i ? "x" : "") << sizes[i];
        oss << "]";
    }
    return oss.str();
}

void
TiledSchedule::forEach(const IVec &lo, const IVec &hi,
                       const IterationVisitor &visit) const
{
    UOV_REQUIRE(lo.dim() == _t.rows() && hi.dim() == _t.rows(),
                "schedule depth mismatch");
    IVec tlo, thi;
    transformedBounds(_t, lo, hi, tlo, thi);
    auto scan = [&](const IVec &ylo, const IVec &yhi) {
        scanBox(ylo, yhi, [&](const IVec &y) {
            IVec q = _t_inv * y;
            if (inBox(q, lo, hi))
                visit(q);
        });
    };
    scanTiles(_levels, 0, tlo, thi, scan);
}

AffineSchedule::AffineSchedule(std::vector<IVec> rows, std::string label)
    : _rows(std::move(rows)), _label(std::move(label))
{
    UOV_REQUIRE(!_rows.empty(), "affine schedule needs at least one row");
    for (const auto &r : _rows)
        UOV_REQUIRE(r.dim() == _rows[0].dim(),
                    "affine schedule row dimension mismatch");
}

std::string
AffineSchedule::name() const
{
    if (!_label.empty())
        return _label;
    std::ostringstream oss;
    oss << "affine(";
    for (size_t i = 0; i < _rows.size(); ++i) {
        if (i)
            oss << "; ";
        oss << _rows[i];
    }
    oss << ")";
    return oss.str();
}

std::vector<int64_t>
AffineSchedule::timeOf(const IVec &q) const
{
    std::vector<int64_t> t;
    t.reserve(_rows.size());
    for (const auto &r : _rows)
        t.push_back(r.dot(q));
    return t;
}

void
AffineSchedule::forEach(const IVec &lo, const IVec &hi,
                        const IterationVisitor &visit) const
{
    UOV_REQUIRE(lo.dim() == _rows[0].dim(), "schedule depth mismatch");
    // Materialize and sort: simple and correct for the demo/test
    // scale this class targets.
    std::vector<IVec> points;
    scanBox(lo, hi, [&](const IVec &q) { points.push_back(q); });
    std::stable_sort(points.begin(), points.end(),
                     [&](const IVec &a, const IVec &b) {
                         auto ta = timeOf(a);
                         auto tb = timeOf(b);
                         if (ta != tb)
                             return ta < tb;
                         return a.coords() < b.coords();
                     });
    for (const auto &q : points)
        visit(q);
}

bool
ovLegalForAffineSchedule(const AffineSchedule &schedule, const IVec &ov,
                         const Stencil &stencil)
{
    UOV_REQUIRE(!ov.isZero(), "zero occupancy vector");
    for (const auto &v : stencil.deps()) {
        std::vector<int64_t> tv = schedule.timeOf(v);
        // Lexicographically positive == strictly greater than the
        // all-zero tuple.
        UOV_REQUIRE(tv > std::vector<int64_t>(tv.size(), 0),
                    "schedule is not legal for dependence " << v.str());
    }
    std::vector<int64_t> t_ov = schedule.timeOf(ov);
    for (const auto &v : stencil.deps()) {
        if (v == ov)
            continue;
        if (!(schedule.timeOf(v) < t_ov))
            return false;
    }
    return true;
}

RandomTopoSchedule::RandomTopoSchedule(Stencil stencil, uint64_t seed)
    : _stencil(std::move(stencil)), _seed(seed)
{
}

std::string
RandomTopoSchedule::name() const
{
    return "random-topo(seed=" + std::to_string(_seed) + ")";
}

void
RandomTopoSchedule::forEach(const IVec &lo, const IVec &hi,
                            const IterationVisitor &visit) const
{
    size_t d = lo.dim();
    UOV_REQUIRE(d == _stencil.dim(), "schedule depth mismatch");

    // Collect box points and index them.
    std::vector<IVec> points;
    scanBox(lo, hi, [&](const IVec &q) { points.push_back(q); });
    std::unordered_map<IVec, size_t, IVecHash> index;
    for (size_t i = 0; i < points.size(); ++i)
        index.emplace(points[i], i);

    // In-box predecessor counts.
    std::vector<uint32_t> pending(points.size(), 0);
    for (size_t i = 0; i < points.size(); ++i) {
        for (const auto &v : _stencil.deps()) {
            IVec pred = points[i] - v;
            if (index.count(pred))
                ++pending[i];
        }
    }

    std::vector<size_t> ready;
    for (size_t i = 0; i < points.size(); ++i)
        if (pending[i] == 0)
            ready.push_back(i);

    SplitMix64 rng(_seed);
    size_t emitted = 0;
    while (!ready.empty()) {
        size_t pick = rng.nextBelow(ready.size());
        size_t i = ready[pick];
        ready[pick] = ready.back();
        ready.pop_back();

        visit(points[i]);
        ++emitted;

        for (const auto &v : _stencil.deps()) {
            IVec succ = points[i] + v;
            auto it = index.find(succ);
            if (it != index.end() && --pending[it->second] == 0)
                ready.push_back(it->second);
        }
    }
    UOV_CHECK(emitted == points.size(),
              "dependence graph of a lex-positive stencil must be "
              "acyclic; emitted " << emitted << " of " << points.size());
}

} // namespace uov
