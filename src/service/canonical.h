/**
 * @file
 * Stencil canonicalization for the UOV query service.
 *
 * Heavy query traffic repeats itself: the same dependence pattern
 * arrives shuffled, duplicated, or padded with implied dependences.
 * Canonicalization maps every member of such an equivalence class to
 * one representative so symmetric queries share a single search and a
 * single cache entry.
 *
 * Two normalization layers, both of which provably preserve the UOV
 * set *pointwise* (not merely up to isomorphism -- the cache returns
 * the stored vector verbatim, so nothing weaker suffices):
 *
 *  1. Presentation: dependence order and duplicates.  Stencil's
 *     constructor already sorts and dedups, so UOV(V) depends only on
 *     the dependence *set*.
 *
 *  2. Implied dependences.  Write C for the non-negative integer cone
 *     of V and recall UOV(V) = { w != 0 : w - v in C for all v in V }.
 *     A dependence r may be dropped when both
 *       (a) r in cone(V \ {r})            -- the cone is unchanged, and
 *       (b) some v_i in V \ {r} has v_i - r in C
 *                                          -- r's constraint is implied:
 *              w - r = (w - v_i) + (v_i - r) in C + C = C.
 *     Then UOV(V) = UOV(V \ {r}) pointwise.  Example: in
 *     {(1,0), (2,0), (3,0)}, (2,0) is removable ((3,0)-(2,0) = (1,0)).
 *     Condition (b) is essential: in {(2,0), (3,0), (5,0)} the vector
 *     (5,0) = (2,0)+(3,0) satisfies (a) but dropping it would admit
 *     w = (6,0), which is not universal for the full stencil because
 *     (6,0)-(5,0) = (1,0) is outside the numerical semigroup <2,3>.
 *
 * Because canonicalization only *removes* dependences, a certificate
 * for the canonical stencil is a certificate for the original (the
 * removed constraints are implied), and every objective value
 * (squared norm, storage cells over an ISG) is stencil-independent.
 * The service therefore answers every query from its canonical
 * representative; see DESIGN.md "Query service".
 */

#ifndef UOV_SERVICE_CANONICAL_H
#define UOV_SERVICE_CANONICAL_H

#include <cstdint>
#include <optional>
#include <vector>

#include "core/search.h"
#include "core/stencil.h"
#include "geometry/ivec.h"

namespace uov {
namespace service {

/**
 * The canonical representative of @p s: the deterministic fixpoint of
 * removing implied dependences (lex-smallest removable first).  The
 * result's dependence set is a subset of s.deps(); canonicalization
 * is idempotent.  Cone-membership queries whose search budget is
 * exhausted conservatively keep the dependence.
 */
Stencil canonicalizeStencil(const Stencil &s);

/**
 * A result-cache key: canonical dependence set, objective, (for
 * BoundedStorage) the ISG box, and the request deadline class.
 * Key-equal queries receive the identical answer -- the service
 * computes on the canonical stencil, and objectives/bounds are part
 * of the key.  The deadline is part of the key because a
 * deadline-degraded answer is only valid for queries with the same
 * budget: caching a 0 ms answer for an unbounded query would
 * silently pessimize it, and vice versa.
 */
struct CanonicalKey
{
    std::vector<IVec> deps; ///< canonical, sorted (Stencil order)
    SearchObjective objective = SearchObjective::ShortestVector;
    std::optional<IVec> isg_lo; ///< set iff objective == BoundedStorage
    std::optional<IVec> isg_hi;
    int64_t deadline_ms = -1;   ///< per-request budget; -1 = unbounded

    bool operator==(const CanonicalKey &o) const;

    size_t hash() const;

    /** Approximate heap footprint, for cache byte accounting. */
    size_t byteSize() const;
};

struct CanonicalKeyHash
{
    size_t operator()(const CanonicalKey &k) const { return k.hash(); }
};

/** Build the cache key for an (already canonical) stencil. */
CanonicalKey makeKey(const Stencil &canonical, SearchObjective objective,
                     const std::optional<IVec> &isg_lo,
                     const std::optional<IVec> &isg_hi,
                     int64_t deadline_ms = -1);

} // namespace service
} // namespace uov

#endif // UOV_SERVICE_CANONICAL_H
