#include "fuzz/generator.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "schedule/builder.h"
#include "schedule/legality.h"
#include "support/error.h"

namespace uov {
namespace fuzz {

namespace {

/** One random lex-positive vector with |coords| <= max_coord. */
IVec
randomLexPositive(SplitMix64 &rng, size_t dim, int64_t max_coord)
{
    for (;;) {
        std::vector<int64_t> c(dim);
        // Dimension 0 stays non-negative so the stencil admits an
        // exact positive functional (see header contract).
        c[0] = rng.nextInRange(0, max_coord);
        for (size_t k = 1; k < dim; ++k)
            c[k] = rng.nextInRange(-max_coord, max_coord);
        IVec v(std::move(c));
        if (!v.isZero() && v.isLexPositive())
            return v;
    }
}

} // namespace

Stencil
randomStencilDim(SplitMix64 &rng, size_t dim, const GenOptions &opt)
{
    size_t m = 1 + rng.nextBelow(opt.max_deps);
    std::set<IVec> deps;
    // Distinctness by construction; bounded retries keep the stream
    // deterministic even when the space of small vectors is tight.
    for (size_t tries = 0; deps.size() < m && tries < 8 * m; ++tries)
        deps.insert(randomLexPositive(rng, dim, opt.max_coord));
    return Stencil(std::vector<IVec>(deps.begin(), deps.end()));
}

Stencil
randomStencil(SplitMix64 &rng, const GenOptions &opt)
{
    size_t dim = opt.min_dim +
                 rng.nextBelow(opt.max_dim - opt.min_dim + 1);
    return randomStencilDim(rng, dim, opt);
}

IVec
randomCandidate(SplitMix64 &rng, size_t dim, int64_t radius)
{
    // Half the draws concentrate on the small shell where UOV
    // membership actually flips; the rest cover the full cube.
    int64_t r = rng.nextBelow(2) == 0 ? std::min<int64_t>(radius, 2)
                                      : radius;
    std::vector<int64_t> c(dim);
    for (size_t k = 0; k < dim; ++k)
        c[k] = rng.nextInRange(-r, r);
    return IVec(std::move(c));
}

void
randomIsgBox(SplitMix64 &rng, size_t dim, const GenOptions &opt,
             IVec &lo, IVec &hi)
{
    std::vector<int64_t> l(dim), h(dim);
    for (size_t k = 0; k < dim; ++k) {
        l[k] = rng.nextInRange(-3, 3);
        h[k] = l[k] + opt.min_box_side +
               rng.nextInRange(0, opt.max_box_side - opt.min_box_side);
    }
    lo = IVec(std::move(l));
    hi = IVec(std::move(h));
}

LoopNest
randomNest(SplitMix64 &rng, const GenOptions &opt)
{
    size_t dim = opt.min_dim +
                 rng.nextBelow(opt.max_dim - opt.min_dim + 1);
    IVec lo, hi;
    randomIsgBox(rng, dim, opt, lo, hi);

    std::ostringstream name;
    name << "fz" << std::hex << (rng.next() & 0xffff);
    LoopNest nest(name.str(), lo, hi);

    size_t nstmts = 1 + rng.nextBelow(opt.max_statements);
    for (size_t s = 0; s < nstmts; ++s) {
        std::string array(1, static_cast<char>('A' + s));
        Statement stmt;
        stmt.name = array;
        stmt.write = uniformAccess(array, IVec(dim));
        // Reads at offset -v for lex-positive v: each read's value
        // dependence distance is exactly v, so every statement carries
        // a regular flow stencil the analysis layer accepts.
        Stencil deps = randomStencilDim(rng, dim, opt);
        for (const auto &v : deps.deps())
            stmt.reads.push_back(uniformAccess(array, -v));
        nest.addStatement(std::move(stmt));
    }
    return nest;
}

std::unique_ptr<Schedule>
randomLegalSchedule(SplitMix64 &rng, const Stencil &stencil,
                    bool cone_safe)
{
    size_t d = stencil.dim();
    uint64_t kind = rng.nextBelow(4);

    // Draw every stream value the branch *might* need up front so the
    // rng advances identically whichever fallback is taken: replaying
    // a seed reproduces the same schedule choice sequence.
    uint64_t topo_seed = rng.next();

    // The cone-safe fallback in place of a random topological order:
    // a wavefront along the exact positive functional respects the
    // full dependence cone on any box (see the header contract).
    auto fallback = [&]() -> std::unique_ptr<Schedule> {
        if (cone_safe) {
            auto h = stencil.positiveFunctional();
            if (h && wavefrontLegal(*h, stencil))
                return std::make_unique<AffineSchedule>(
                    std::vector<IVec>{*h});
            return std::make_unique<TiledSchedule>(IMatrix::identity(d));
        }
        return std::make_unique<RandomTopoSchedule>(stencil, topo_seed);
    };

    if (kind == 1) {
        std::vector<size_t> perm(d);
        for (size_t k = 0; k < d; ++k)
            perm[k] = k;
        for (size_t k = d; k > 1; --k)
            std::swap(perm[k - 1], perm[rng.nextBelow(k)]);
        if (!permutationLegal(perm, stencil)) {
            for (size_t k = 0; k < d; ++k)
                perm[k] = k; // identity: the original program order
        }
        return ScheduleBuilder(d).reorder(perm).buildSchedule();
    }

    if (kind == 2) {
        auto h = stencil.positiveFunctional();
        if (h) {
            IVec w = *h;
            for (size_t k = 0; k < d; ++k)
                w[k] += rng.nextInRange(0, 2);
            if (wavefrontLegal(w, stencil))
                return std::make_unique<AffineSchedule>(
                    std::vector<IVec>{w});
        }
        return fallback();
    }

    if (kind == 3) {
        bool advances = true;
        for (const auto &v : stencil.deps())
            if (v[0] <= 0)
                advances = false;
        std::vector<int64_t> sizes(d);
        for (size_t k = 0; k < d; ++k)
            sizes[k] = 1 + static_cast<int64_t>(rng.nextBelow(4));
        if (advances) {
            IMatrix t = skewToNonNegative(stencil);
            if (tilingLegal(t, stencil))
                return std::make_unique<TiledSchedule>(
                    std::move(t),
                    std::vector<std::vector<int64_t>>{std::move(sizes)},
                    "fuzz-skew-tiled");
        }
        return fallback();
    }

    return fallback();
}

} // namespace fuzz
} // namespace uov
