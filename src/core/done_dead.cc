#include "core/done_dead.h"

#include "geometry/box.h"
#include "support/error.h"

namespace uov {

DoneDeadAnalysis::DoneDeadAnalysis(Stencil stencil)
    : _cone(std::move(stencil))
{
}

DoneDeadAnalysis::DoneDeadAnalysis(std::shared_ptr<ConeMemo> memo)
    : _cone(std::move(memo))
{
}

bool
DoneDeadAnalysis::isDone(const IVec &q, const IVec &p)
{
    // The paper's formula allows all-zero coefficients, so q itself is
    // in DONE(V, q).  This matters for DEAD: when p + v == q the value
    // of p is consumed by q itself (read before write within the
    // iteration), as in Figure 1 where the UOV (1,1) is a stencil
    // vector.
    return _cone.contains(q - p);
}

bool
DoneDeadAnalysis::isDead(const IVec &q, const IVec &p)
{
    for (const auto &v : stencil().deps()) {
        if (!isDone(q, p + v))
            return false;
    }
    return true;
}

template <typename Pred>
std::vector<IVec>
DoneDeadAnalysis::enumerateBox(const IVec &lo, const IVec &hi, Pred pred)
{
    UOV_REQUIRE(lo.dim() == hi.dim() && lo.dim() == stencil().dim(),
                "enumeration box [" << lo.str() << ", " << hi.str()
                                    << "] must match stencil "
                                    << stencil().str() << " dimension "
                                    << stencil().dim());
    for (size_t c = 0; c < lo.dim(); ++c)
        UOV_REQUIRE(lo[c] <= hi[c],
                    "empty enumeration box [" << lo.str() << ", "
                                              << hi.str()
                                              << "]: lo > hi on axis "
                                              << c);
    std::vector<IVec> out;
    scanBox(lo, hi, [&](const IVec &p) {
        if (pred(p))
            out.push_back(p);
    });
    return out;
}

std::vector<IVec>
DoneDeadAnalysis::enumerateDone(const IVec &q, const IVec &lo,
                                const IVec &hi)
{
    return enumerateBox(lo, hi,
                        [&](const IVec &p) { return isDone(q, p); });
}

std::vector<IVec>
DoneDeadAnalysis::enumerateDead(const IVec &q, const IVec &lo,
                                const IVec &hi)
{
    return enumerateBox(lo, hi,
                        [&](const IVec &p) { return isDead(q, p); });
}

} // namespace uov
