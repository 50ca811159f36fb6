#include "service/canonical.h"

#include "core/cone.h"
#include "support/error.h"

namespace uov {
namespace service {

namespace {

/**
 * Cone-membership budget for canonicalization probes.  Real service
 * stencils resolve in well under this; adversarial instances (the
 * NP-completeness reductions) exhaust it, and the prober then reports
 * "not known to be a member", which keeps the dependence -- always
 * sound, merely less canonical.
 */
constexpr uint64_t kConeBudget = 200'000;

} // namespace

Stencil
canonicalizeStencil(const Stencil &s)
{
    std::vector<IVec> deps = s.deps();
    bool changed = true;
    while (changed && deps.size() >= 2) {
        changed = false;
        for (size_t j = 0; j < deps.size(); ++j) {
            std::vector<IVec> rest;
            rest.reserve(deps.size() - 1);
            for (size_t k = 0; k < deps.size(); ++k)
                if (k != j)
                    rest.push_back(deps[k]);
            const IVec &r = deps[j];
            bool removable = false;
            try {
                ConeSolver cone(Stencil(rest), kConeBudget);
                // (a) the cone survives without r, and (b) some
                // remaining dependence implies r's UOV constraint.
                if (cone.contains(r)) {
                    for (const IVec &vi : rest) {
                        if (cone.contains(vi - r)) {
                            removable = true;
                            break;
                        }
                    }
                }
            } catch (const UovError &) {
                removable = false; // budget/overflow: keep r
            }
            if (removable) {
                deps = std::move(rest);
                changed = true;
                break; // restart the scan on the reduced set
            }
        }
    }
    return Stencil(std::move(deps));
}

bool
CanonicalKey::operator==(const CanonicalKey &o) const
{
    return objective == o.objective && deadline_ms == o.deadline_ms &&
           deps == o.deps && isg_lo == o.isg_lo && isg_hi == o.isg_hi;
}

size_t
CanonicalKey::hash() const
{
    // FNV-1a style mix over the per-vector hashes and the scalars.
    size_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](size_t v) {
        h ^= v;
        h *= 0x100000001b3ULL;
    };
    mix(static_cast<size_t>(objective));
    mix(static_cast<size_t>(deadline_ms));
    for (const auto &v : deps)
        mix(IVecHash{}(v));
    if (isg_lo)
        mix(IVecHash{}(*isg_lo));
    if (isg_hi)
        mix(IVecHash{}(*isg_hi));
    return h;
}

size_t
CanonicalKey::byteSize() const
{
    size_t dim = deps.empty() ? 0 : deps[0].dim();
    size_t bytes = sizeof(CanonicalKey);
    bytes += deps.size() * (sizeof(IVec) + dim * sizeof(int64_t));
    if (isg_lo)
        bytes += 2 * dim * sizeof(int64_t);
    return bytes;
}

CanonicalKey
makeKey(const Stencil &canonical, SearchObjective objective,
        const std::optional<IVec> &isg_lo,
        const std::optional<IVec> &isg_hi, int64_t deadline_ms)
{
    UOV_REQUIRE(objective != SearchObjective::BoundedStorage ||
                    (isg_lo.has_value() && isg_hi.has_value()),
                "BoundedStorage key requires ISG bounds");
    CanonicalKey key;
    key.deps = canonical.deps();
    key.objective = objective;
    if (objective == SearchObjective::BoundedStorage) {
        key.isg_lo = isg_lo;
        key.isg_hi = isg_hi;
    }
    key.deadline_ms = deadline_ms < 0 ? -1 : deadline_ms;
    return key;
}

} // namespace service
} // namespace uov
