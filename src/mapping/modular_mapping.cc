#include "mapping/modular_mapping.h"

#include "core/uov.h"
// ovLegalForLinearSchedule comes from core (schedule-free rule).
#include "geometry/box.h"
#include "support/checked.h"
#include "support/error.h"

namespace uov {

ModularMapping::ModularMapping(IVec moduli, IVec lo)
    : _m(std::move(moduli)), _lo(std::move(lo))
{
    UOV_REQUIRE(_m.dim() == _lo.dim() && _m.dim() >= 1,
                "moduli/corner dimension mismatch");
    IVec top(_m.dim());
    for (size_t c = _m.dim(); c-- > 0;) {
        UOV_REQUIRE(_m[c] >= 1, "modulus must be >= 1");
        top[c] = _m[c] - 1;
    }
    _residues = BoxLayout(IVec(_m.dim()), std::move(top));
}

int64_t
ModularMapping::operator()(const IVec &q) const
{
    UOV_CHECK(q.dim() == _m.dim(), "point dimension mismatch");
    return _residues.checkedIndex([&](size_t c) {
        return floorMod(checkedSub(q[c], _lo[c]), _m[c]);
    });
}

namespace {

/**
 * Enumerate the nonzero lattice differences of m realizable within
 * the box extents, calling pred on each; returns false as soon as an
 * unsafe difference is found.
 */
template <typename Pred>
bool
allDifferencesSafe(const IVec &m, const IVec &ext, Pred safe)
{
    size_t d = m.dim();
    // c_k ranges over multiples with |c_k * m_k| <= ext_k - 1.
    IVec max_mult(d);
    for (size_t c = 0; c < d; ++c)
        max_mult[c] = (ext[c] - 1) / m[c];
    return scanBox(-max_mult, max_mult, [&](const IVec &mult) {
        if (mult.isZero())
            return true;
        IVec diff(d);
        for (size_t c = 0; c < d; ++c)
            diff[c] = mult[c] * m[c];
        return safe(diff);
    });
}

template <typename SafetyCheck>
ModuliSearchResult
searchModuli(const IVec &lo, const IVec &hi, SafetyCheck safe_moduli)
{
    size_t d = lo.dim();
    int64_t search_space = boxVolume(lo, hi);
    UOV_REQUIRE(search_space <= 1000000,
                "moduli search over " << search_space
                    << " combinations; use a smaller ISG");

    IVec ones(d), ext(d);
    for (size_t c = 0; c < d; ++c) {
        ones[c] = 1;
        ext[c] = hi[c] - lo[c] + 1;
    }
    ModuliSearchResult best;
    best.moduli = ext; // trivial: no reuse, always safe
    best.cells = search_space;
    best.trivial = true;

    scanBox(ones, ext, [&](const IVec &m) {
        int64_t cells = boxVolume(ones, m);
        if (cells < best.cells && safe_moduli(m, ext)) {
            best.moduli = m;
            best.cells = cells;
            best.trivial = (m == ext);
        }
    });
    return best;
}

} // namespace

ModuliSearchResult
universallySafeModuli(const Stencil &stencil, const IVec &lo,
                      const IVec &hi)
{
    UOV_REQUIRE(stencil.dim() == lo.dim() && lo.dim() == hi.dim(),
                "dimension mismatch");
    UovOracle oracle(stencil);
    auto safe = [&](const IVec &m, const IVec &ext) {
        return allDifferencesSafe(m, ext, [&](const IVec &diff) {
            IVec w = diff.isLexPositive() ? diff : -diff;
            return oracle.isUov(w);
        });
    };
    return searchModuli(lo, hi, safe);
}

ModuliSearchResult
scheduleSpecificModuli(const IVec &h, const Stencil &stencil,
                       const IVec &lo, const IVec &hi)
{
    UOV_REQUIRE(stencil.dim() == lo.dim() && lo.dim() == hi.dim(),
                "dimension mismatch");
    for (const auto &v : stencil.deps())
        UOV_REQUIRE(h.dot(v) > 0, "h is not a legal schedule vector");

    auto safe = [&](const IVec &m, const IVec &ext) {
        return allDifferencesSafe(m, ext, [&](const IVec &diff) {
            int64_t hd = h.dot(diff);
            if (hd == 0)
                return false; // concurrent conflicting points
            IVec w = hd > 0 ? diff : -diff;
            return ovLegalForLinearSchedule(h, w, stencil);
        });
    };
    return searchModuli(lo, hi, safe);
}

} // namespace uov
