#include "core/stencil.h"

#include <algorithm>

#include "support/checked.h"
#include "support/error.h"

namespace uov {

Stencil::Stencil(std::vector<IVec> deps)
{
    UOV_REQUIRE(!deps.empty(), "stencil must have at least one dependence");
    size_t d = deps[0].dim();
    UOV_REQUIRE(d >= 1, "stencil dependences must have dimension >= 1");
    for (const auto &v : deps) {
        UOV_REQUIRE(v.dim() == d, "stencil dependence dimension mismatch: "
                                      << v.str());
        UOV_REQUIRE(!v.isZero(), "zero dependence vector");
        UOV_REQUIRE(v.isLexPositive(),
                    "dependence " << v.str()
                        << " is not lexicographically positive; the "
                           "original loop would be illegal");
    }
    std::sort(deps.begin(), deps.end());
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
    UOV_REQUIRE(deps.size() <= 32,
                "stencil has " << deps.size()
                    << " distinct dependences; PATHSET masks support <= 32");
    _deps = std::move(deps);
}

bool
Stencil::contains(const IVec &v) const
{
    return std::binary_search(_deps.begin(), _deps.end(), v);
}

IVec
Stencil::initialUov() const
{
    IVec sum(dim());
    for (const auto &v : _deps)
        sum += v;
    return sum;
}

std::optional<IVec>
Stencil::positiveFunctional() const
{
    size_t d = dim();
    // h = (M^{d-1}, ..., M, 1) with M > d * maxAbsCoord dominates lower
    // coordinates: for a lex-positive v the first nonzero coordinate
    // contributes at least M^k while the tail can subtract at most
    // (d-1) * maxAbs * M^{k-1} < M^k.
    int64_t max_abs = maxAbsCoord();
    int64_t m;
    if (__builtin_mul_overflow(max_abs, static_cast<int64_t>(d), &m))
        return std::nullopt;
    if (__builtin_add_overflow(m, static_cast<int64_t>(1), &m))
        return std::nullopt;

    IVec h(d);
    int64_t w = 1;
    for (size_t i = d; i-- > 0;) {
        h[i] = w;
        if (i > 0) {
            if (__builtin_mul_overflow(w, m, &w))
                return std::nullopt;
        }
    }
    // Also guard the dot products we will take: h . v for max coords.
    int64_t worst;
    if (__builtin_mul_overflow(h[0], max_abs, &worst))
        return std::nullopt;
    if (__builtin_mul_overflow(worst, static_cast<int64_t>(d), &worst))
        return std::nullopt;
    for (const auto &v : _deps)
        UOV_CHECK(h.dot(v) > 0, "positive functional on " << v.str());
    return h;
}

bool
Stencil::allNonNegativeInCoord(size_t c) const
{
    for (const auto &v : _deps)
        if (v[c] < 0)
            return false;
    return true;
}

bool
Stencil::allNonPositiveInCoord(size_t c) const
{
    for (const auto &v : _deps)
        if (v[c] > 0)
            return false;
    return true;
}

int64_t
Stencil::maxAbsCoord() const
{
    int64_t m = 0;
    for (const auto &v : _deps)
        m = std::max(m, v.normInf());
    return m;
}

std::pair<IVec, IVec>
Stencil::extremeVectors2D() const
{
    UOV_REQUIRE(dim() == 2, "extremeVectors2D requires a 2-D stencil");
    // All vectors are lex-positive, hence within the half-plane
    // { x > 0 } union { x == 0, y > 0 }: a total angular (clockwise)
    // order exists via the cross product.
    auto cross = [](const IVec &a, const IVec &b) {
        return checkedSub(checkedMul(a[0], b[1]), checkedMul(a[1], b[0]));
    };
    IVec lo = _deps[0], hi = _deps[0];
    for (const auto &v : _deps) {
        if (cross(lo, v) < 0)
            lo = v; // more clockwise
        if (cross(hi, v) > 0)
            hi = v; // more counter-clockwise
    }
    return {lo, hi};
}

std::string
Stencil::str() const
{
    TextWriter out;
    out << '{';
    for (size_t i = 0; i < _deps.size(); ++i) {
        if (i)
            out << ", ";
        out << _deps[i];
    }
    out << '}';
    return out.take();
}

namespace stencils {

Stencil
simpleExample()
{
    return Stencil({IVec{1, 0}, IVec{0, 1}, IVec{1, 1}});
}

Stencil
threeVector()
{
    // Figure 2 sketches three dependences of distinct slopes; the exact
    // values are not printed in the paper, so we use a representative
    // spread-out trio with the same qualitative geometry.
    return Stencil({IVec{1, -1}, IVec{1, 1}, IVec{0, 2}});
}

Stencil
fivePoint()
{
    return Stencil({IVec{1, -2}, IVec{1, -1}, IVec{1, 0}, IVec{1, 1},
                    IVec{1, 2}});
}

Stencil
proteinMatching()
{
    return Stencil({IVec{1, 0}, IVec{0, 1}, IVec{1, 1}});
}

Stencil
heat3D()
{
    return Stencil({IVec{1, 0, 0}, IVec{1, 1, 0}, IVec{1, -1, 0},
                    IVec{1, 0, 1}, IVec{1, 0, -1}});
}

} // namespace stencils

} // namespace uov
