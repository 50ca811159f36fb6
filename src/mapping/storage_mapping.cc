#include "mapping/storage_mapping.h"

#include <sstream>
#include <string>
#include <utility>

#include "geometry/lattice.h"
#include "support/checked.h"
#include "support/error.h"

namespace uov {

namespace {

/** Decimal text of @p v, as operator<< prints an int64_t. */
std::string
decimal(__int128 v)
{
    unsigned __int128 mag = v < 0 ? -static_cast<unsigned __int128>(v)
                                  : static_cast<unsigned __int128>(v);
    std::string digits;
    do {
        digits.insert(digits.begin(), static_cast<char>('0' + mag % 10));
        mag /= 10;
    } while (mag != 0);
    return v < 0 ? "-" + digits : digits;
}

} // namespace

StorageMapping
StorageMapping::create(const IVec &ov, const Polyhedron &isg,
                       ModLayout layout)
{
    UOV_REQUIRE(!ov.isZero(), "zero occupancy vector");
    UOV_REQUIRE(ov.dim() == isg.dim(),
                "OV dimension " << ov.dim() << " != ISG dimension "
                                << isg.dim());
    size_t d = ov.dim();

    StorageMapping sm;
    sm._ov = ov;
    sm._layout = layout;
    sm._g = ov.content();
    IVec prim = ov.dividedBy(sm._g);

    // Class selector for non-prime OVs: alpha . prim == 1, so points
    // along the primitive direction cycle through the g classes
    // (Section 4.2; for ov=(2,0) this is q0 mod 2, as in Figure 5).
    if (sm._g > 1)
        sm._alpha = bezoutVector(prim);
    else
        sm._alpha = IVec(d); // unused

    // Projection rows whose joint kernel is exactly the OV line, each
    // ranging over its projection of the ISG, linearized row-major.
    ovProjectionRows(prim,
                     [&](const IVec &row) { sm._mv.push_back(row); });
    IVec lo(sm._mv.size()), hi(sm._mv.size());
    for (size_t k = 0; k < sm._mv.size(); ++k) {
        isg.projectedRange(sm._mv[k], lo[k], hi[k]);
        UOV_REQUIRE(hi[k] >= lo[k], "ISG projects to an empty range along "
                                        << sm._mv[k].str());
    }
    sm._rows = BoxLayout(std::move(lo), std::move(hi));
    int64_t extent_product = sm._rows.cells();
    sm._cells = checkedMul(sm._g, extent_product);
    sm._mod_factor = layout == ModLayout::Interleaved ? 1 : extent_product;
    return sm;
}

int64_t
StorageMapping::operator()(const IVec &q) const
{
    UOV_CHECK(q.dim() == _ov.dim(), "point dimension mismatch");

    int64_t linear =
        _rows.checkedIndex([&](size_t k) { return _mv[k].dot(q); });

    if (_g == 1)
        return linear;

    int64_t cls = floorMod(_alpha.dot(q), _g);
    if (_layout == ModLayout::Interleaved)
        return checkedAdd(checkedMul(linear, _g), cls);
    return checkedAdd(linear, checkedMul(cls, _mod_factor));
}

std::string
StorageMapping::str() const
{
    // Interleaved classes scale the linear part, and the shift, by g.
    int64_t scale = _layout == ModLayout::Interleaved ? _g : 1;
    std::ostringstream oss;
    oss << "SM(q) = ";
    if (_mv.empty())
        oss << "0";
    for (size_t k = 0; k < _mv.size(); ++k) {
        oss << (k ? " + " : "") << (_mv[k] * scale).str() << ".q";
        if (_rows.stride(k) != 1)
            oss << "*" << _rows.stride(k);
    }
    if (_g > 1) {
        oss << " + (" << _alpha.str() << ".q mod " << _g << ")";
        if (_layout == ModLayout::Blocked)
            oss << "*" << _mod_factor;
    }
    // Fold the shift, the -lo terms.  A scaled stride is at most
    // cells, so each term is exact in 128 bits; the sum leaves int64
    // when the rows' lows lie near the int64 limits.
    __int128 shift = 0;
    for (size_t k = 0; k < _mv.size(); ++k) {
        __int128 term = static_cast<__int128>(_rows.lo()[k]) *
                        checkedMul(_rows.stride(k), scale);
        if (__builtin_sub_overflow(shift, term, &shift))
            throw UovOverflowError("sub");
    }
    oss << " + " << decimal(shift);
    oss << "   [" << _cells << " cells, "
        << (_layout == ModLayout::Interleaved ? "interleaved" : "blocked")
        << "]";
    return oss.str();
}

} // namespace uov
