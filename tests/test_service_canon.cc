/**
 * @file
 * Unit tests for the service's stencil canonicalizer, cache key and
 * answer text: the removal theorem's worked examples (including the
 * counterexample that motivates condition (b)), idempotence, key
 * equality across presentations, fuzz-generated evidence that
 * canonicalization preserves the UOV set pointwise and the search
 * optimum exactly, and the answer line against an std::ostringstream
 * rendering.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>

#include "core/search.h"
#include "core/uov.h"
#include "fuzz/oracles.h"
#include "service/answer.h"
#include "service/canonical.h"
#include "support/rng.h"

namespace uov {
namespace service {
namespace {

std::vector<IVec>
deps(std::initializer_list<IVec> vs)
{
    return std::vector<IVec>(vs);
}

TEST(Canonical, RemovesImpliedCollinearDependence)
{
    // (2,0) is implied: it lies in cone{(1,0),(3,0)} and
    // (3,0) - (2,0) = (1,0) is in the cone too (condition (b)).
    Stencil canon =
        canonicalizeStencil(Stencil(deps({{1, 0}, {2, 0}, {3, 0}})));
    EXPECT_EQ(canon.deps(), deps({{1, 0}, {3, 0}}));
}

TEST(Canonical, KeepsSemigroupGapDependence)
{
    // (5,0) = (2,0) + (3,0) satisfies condition (a) but not (b):
    // dropping it would admit w = (6,0) even though (6,0) - (5,0) =
    // (1,0) is outside the numerical semigroup <2,3>.  The
    // canonicalizer must keep all three.
    Stencil s(deps({{2, 0}, {3, 0}, {5, 0}}));
    EXPECT_EQ(canonicalizeStencil(s).deps(), s.deps());
}

TEST(Canonical, IsIdempotent)
{
    for (auto ds : {deps({{1, 0}, {2, 0}, {3, 0}}),
                    deps({{2, 0}, {3, 0}, {5, 0}}),
                    deps({{1, -1}, {1, 0}, {1, 1}, {2, 0}})}) {
        Stencil once = canonicalizeStencil(Stencil(ds));
        Stencil twice = canonicalizeStencil(once);
        EXPECT_EQ(once.deps(), twice.deps());
    }
}

TEST(Canonical, ScaledPadPresentationsShareAKey)
{
    // V + {2v, 3v} reduces to V + {3v}: 2v is removable once 3v is
    // present (3v - 2v = v), while 3v itself generally is not.
    std::vector<IVec> base = deps({{1, 0}, {1, 1}});
    std::vector<IVec> with3 = base;
    with3.push_back(IVec{3, 3});
    std::vector<IVec> with23 = with3;
    with23.push_back(IVec{2, 2});

    Stencil a = canonicalizeStencil(Stencil(with23));
    Stencil b = canonicalizeStencil(Stencil(with3));
    EXPECT_EQ(a.deps(), b.deps());

    CanonicalKey ka = makeKey(a, SearchObjective::ShortestVector,
                              std::nullopt, std::nullopt);
    CanonicalKey kb = makeKey(b, SearchObjective::ShortestVector,
                              std::nullopt, std::nullopt);
    EXPECT_TRUE(ka == kb);
    EXPECT_EQ(ka.hash(), kb.hash());
}

TEST(Canonical, PresentationOrderAndDuplicatesAreFree)
{
    // Stencil construction sorts and dedups, so shuffled and
    // duplicated presentations build identical keys.
    Stencil a(deps({{1, 1}, {0, 1}, {1, 0}}));
    Stencil b(deps({{1, 0}, {1, 1}, {0, 1}, {1, 1}}));
    EXPECT_EQ(a.deps(), b.deps());
    CanonicalKey ka =
        makeKey(canonicalizeStencil(a), SearchObjective::ShortestVector,
                std::nullopt, std::nullopt);
    CanonicalKey kb =
        makeKey(canonicalizeStencil(b), SearchObjective::ShortestVector,
                std::nullopt, std::nullopt);
    EXPECT_TRUE(ka == kb);
}

TEST(Canonical, KeySeparatesObjectiveAndBounds)
{
    Stencil s = canonicalizeStencil(Stencil(deps({{1, 0}, {0, 1}})));
    CanonicalKey shortest = makeKey(s, SearchObjective::ShortestVector,
                                    std::nullopt, std::nullopt);
    CanonicalKey storage = makeKey(s, SearchObjective::BoundedStorage,
                                   IVec{0, 0}, IVec{7, 7});
    CanonicalKey storage2 = makeKey(s, SearchObjective::BoundedStorage,
                                    IVec{0, 0}, IVec{7, 8});
    EXPECT_FALSE(shortest == storage);
    EXPECT_FALSE(storage == storage2);
    EXPECT_TRUE(storage ==
                makeKey(s, SearchObjective::BoundedStorage, IVec{0, 0},
                        IVec{7, 7}));
}

// The theorem in canonical.h claims the UOV set is preserved
// *pointwise*.  Probe it on fuzz-generated stencils: membership of
// every generated candidate must agree before and after.
TEST(Canonical, FuzzMembershipIsPreservedPointwise)
{
    SplitMix64 seeds(20260805);
    size_t checked = 0;
    for (int i = 0; i < 120; ++i) {
        fuzz::FuzzCase c = fuzz::makeCase(seeds.next());
        if (!c.valid())
            continue;
        Stencil s = c.stencil();
        Stencil canon = canonicalizeStencil(s);
        UovOracle orig(s);
        UovOracle reduced(canon);
        for (const IVec &w : c.candidates) {
            ++checked;
            EXPECT_EQ(orig.isUov(w), reduced.isUov(w))
                << "stencil " << s.str() << " canon " << canon.str()
                << " candidate " << w.str();
        }
        EXPECT_TRUE(reduced.isUov(s.initialUov()))
            << "initial UOV of " << s.str()
            << " lost after canonicalization to " << canon.str();
    }
    EXPECT_GT(checked, 100u);
}

// Key-equal queries must have the same optimum: the branch-and-bound
// search run to completion on the original and the canonical stencil
// finds the same best objective value.
TEST(Canonical, FuzzShortestOptimumUnchanged)
{
    SplitMix64 seeds(77);
    size_t compared = 0;
    for (int i = 0; i < 60 && compared < 25; ++i) {
        fuzz::FuzzCase c = fuzz::makeCase(seeds.next());
        if (!c.valid())
            continue;
        Stencil s = c.stencil();
        Stencil canon = canonicalizeStencil(s);
        SearchOptions opts;
        opts.budget.max_nodes = 200'000;
        SearchResult orig =
            BranchBoundSearch(s, SearchObjective::ShortestVector, opts)
                .run();
        SearchResult reduced =
            BranchBoundSearch(canon, SearchObjective::ShortestVector,
                              opts)
                .run();
        if (orig.degraded() || reduced.degraded())
            continue; // degraded runs may legitimately differ
        ++compared;
        EXPECT_EQ(orig.best_objective, reduced.best_objective)
            << "stencil " << s.str() << " canon " << canon.str();
    }
    EXPECT_GE(compared, 10u);
}

/** IVec::str() and ServiceAnswer::str() as std::ostream writes them. */
std::string
streamed(const IVec &v)
{
    std::ostringstream oss;
    oss << "(";
    for (size_t i = 0; i < v.dim(); ++i)
        oss << (i ? ", " : "") << v.data()[i];
    oss << ")";
    return oss.str();
}

std::string
streamed(const ServiceAnswer &a)
{
    std::ostringstream oss;
    oss << "best=" << streamed(a.best_uov) << " value=" << a.best_objective
        << " initial=" << a.initial_objective
        << " canon=" << a.canonical_deps;
    if (a.degraded)
        oss << " degraded=" << a.degraded_reason;
    oss << " cert=";
    for (size_t i = 0; i < a.cert.size(); ++i) {
        if (i)
            oss << "|";
        for (size_t j = 0; j < a.cert[i].size(); ++j)
            oss << (j ? "," : "") << a.cert[i][j];
    }
    return oss.str();
}

/** An int64 limit, zero, any int64, or most often a small value. */
int64_t
edgyValue(SplitMix64 &rng)
{
    switch (rng.nextBelow(6)) {
    case 0:
        return std::numeric_limits<int64_t>::min();
    case 1:
        return std::numeric_limits<int64_t>::max();
    case 2:
        return 0;
    case 3:
        return static_cast<int64_t>(rng.next());
    default:
        return rng.nextInRange(-1000, 1000);
    }
}

TEST(AnswerText, MatchesStreamReference)
{
    SplitMix64 rng(7);
    for (int i = 0; i < 2000; ++i) {
        IVec v(1 + rng.nextBelow(6)); // past IVec's inline four
        for (size_t c = 0; c < v.dim(); ++c)
            v[c] = edgyValue(rng);
        ASSERT_EQ(v.str(), streamed(v));
        std::ostringstream via_operator;
        via_operator << v;
        ASSERT_EQ(via_operator.str(), streamed(v));

        ServiceAnswer a;
        a.best_uov = v;
        a.best_objective = edgyValue(rng);
        a.initial_objective = edgyValue(rng);
        a.canonical_deps = rng.nextBelow(2) ? rng.nextBelow(33)
                                            : static_cast<size_t>(
                                                  rng.next());
        a.degraded = rng.nextBelow(2);
        if (a.degraded)
            a.degraded_reason = rng.nextBelow(2) ? "node-budget"
                                                 : "deadline";
        a.cert.resize(rng.nextBelow(5)); // empty, one or several rows
        for (auto &row : a.cert) {
            row.resize(rng.nextBelow(7));
            for (auto &x : row)
                x = edgyValue(rng);
        }
        ASSERT_EQ(a.str(), streamed(a));
    }
}

} // namespace
} // namespace service
} // namespace uov
