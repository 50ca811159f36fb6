#include "workload.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "core/stencil.h"
#include "service/canonical.h"

namespace perfbench {

uint64_t
Rng::next()
{
    uint64_t z = (_state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

int64_t
Rng::range(int64_t lo, int64_t hi)
{
    return lo + static_cast<int64_t>(next() %
                                     static_cast<uint64_t>(hi - lo + 1));
}

int64_t
Query::points() const
{
    int64_t n = 1;
    for (size_t k = 0; k < lo.size(); ++k)
        n *= hi[k] - lo[k] + 1;
    return n;
}

std::string
renderLine(const Query &q, const std::vector<Vec> &deps)
{
    std::ostringstream oss;
    oss << "query " << q.verb;
    if (!q.lo.empty()) {
        oss << " bounds";
        for (size_t k = 0; k < q.lo.size(); ++k)
            oss << " " << q.lo[k] << ".." << q.hi[k];
    }
    oss << " deps";
    for (const Vec &v : deps) {
        oss << " [";
        for (size_t k = 0; k < v.size(); ++k)
            oss << (k ? "," : "") << v[k];
        oss << "]";
    }
    return oss.str();
}

std::string
renderLine(const Query &q)
{
    return renderLine(q, q.deps);
}

namespace {

bool
lexPositive(const Vec &v)
{
    for (int64_t c : v)
        if (c != 0)
            return c > 0;
    return false;
}

Query
randomSolve(Rng &rng, bool storage, size_t d, size_t m)
{
    Query q;
    q.verb = storage ? "storage" : "shortest";
    std::set<Vec> deps;
    while (deps.size() < m) {
        Vec v(d);
        v[0] = rng.range(0, 3);
        for (size_t k = 1; k < d; ++k)
            v[k] = rng.range(-3, 3);
        if (lexPositive(v))
            deps.insert(v);
    }
    q.deps.assign(deps.begin(), deps.end());
    if (storage) {
        for (size_t k = 0; k < d; ++k) {
            q.lo.push_back(rng.range(-2, 2));
            q.hi.push_back(q.lo.back() + rng.range(4, 12) - 1);
        }
    }
    return q;
}

struct Kernel
{
    const char *name;
    std::vector<Vec> deps;
};

const std::vector<Kernel> kPaper2D = {
    {"stencil5", {{1, 2}, {1, 1}, {1, 0}, {1, -1}, {1, -2}}},
    {"psm", {{0, 1}, {1, 0}}},
    {"diamond3", {{1, 1}, {1, 0}, {1, -1}}},
};

const std::vector<Kernel> k3D = {
    {"heat3d",
     {{1, 0, 0}, {1, -1, 0}, {1, 1, 0}, {1, 0, -1}, {1, 0, 1}}},
    {"wide3d", {{0, 0, 3}, {2, -3, -2}, {2, 1, -3}, {3, 2, 2}}},
};

/** One query per (kernel, box), extents grown by up to @p jitter. */
void
addBoxes(std::vector<Query> &out, Rng &rng, const std::string &verb,
         const std::vector<Kernel> &kernels,
         const std::vector<Vec> &extents, int64_t jitter)
{
    for (const Kernel &k : kernels)
        for (const Vec &ext : extents) {
            Query q;
            q.verb = verb;
            q.deps = k.deps;
            for (int64_t e : ext) {
                q.lo.push_back(0);
                q.hi.push_back(e + rng.range(0, jitter) - 1);
            }
            out.push_back(std::move(q));
        }
}

} // namespace

std::vector<Query>
solvePool(uint64_t seed, size_t count)
{
    // Every pool opens with the same memory-heavy 3-D storage queries
    // (each drives the search's peak footprint up by 3-15 MiB), so the
    // peak RSS is set by the same requests on every seed.
    std::vector<Query> pool = {
        {"storage", {{0, 0, 2}, {0, 1, 0}, {2, 2, -2}, {3, -1, 1}},
         {-2, -1, -2}, {9, 3, 3}},
        {"storage", {{0, 0, 1}, {0, 3, 2}, {2, -2, -2}, {3, 3, 2}},
         {0, -1, 1}, {9, 3, 7}},
        {"storage", {{0, 0, 2}, {1, -2, 3}, {2, -3, -1}, {2, 3, 1}},
         {-1, 2, -2}, {6, 7, 8}},
    };
    Rng rng(seed);
    std::set<std::string> seen;
    for (const Query &q : pool)
        seen.insert(renderLine(q));
    // Stratified: objective and dimension alternate, and the
    // dependence count cycles within each (objective, dimension)
    // stratum, so pools of different seeds hold the same mix and only
    // vectors and boxes vary.  One-dependence shortest queries are
    // left out: there are too few distinct ones, and they are trivial.
    size_t drawn[4] = {0, 0, 0, 0};
    size_t drawn_total = 0;
    while (pool.size() < count) {
        size_t stratum = drawn_total % 4;
        bool storage = stratum % 2 == 0;
        size_t m = storage ? 1 + drawn[stratum] % 4 : 2 + drawn[stratum] % 3;
        Query q = randomSolve(rng, storage, 2 + stratum / 2, m);
        if (seen.insert(renderLine(q)).second) {
            ++drawn[stratum];
            ++drawn_total;
            pool.push_back(std::move(q));
        }
    }
    return pool;
}

std::vector<Query>
nativePool(uint64_t seed)
{
    Rng rng(seed ^ 0x6e6174697665ULL);
    std::vector<Query> pool;
    addBoxes(pool, rng, "native", kPaper2D, {{32, 512}, {48, 768}}, 7);
    addBoxes(pool, rng, "native", k3D, {{8, 32, 32}, {12, 40, 40}}, 7);
    rng.shuffle(pool);
    return pool;
}

std::vector<Query>
tunePool(uint64_t seed)
{
    Rng rng(seed ^ 0x74756e65ULL);
    std::vector<Query> pool;
    // No jitter: extents off the unroll, jam and tile multiples add
    // remainder loops to all of a request's kernels, which moved the
    // tune pass's cc time by about 10% from seed to seed.
    addBoxes(pool, rng, "tune", kPaper2D, {{16, 128}, {32, 256}}, 0);
    rng.shuffle(pool);
    return pool;
}

Query
warmupQuery(const std::string &verb)
{
    return {verb, {{0, 1}, {1, 0}}, {0, 0}, {7, 15}};
}

std::vector<std::string>
coldLines(const std::vector<Query> &pool, uint64_t seed)
{
    Rng rng(seed ^ 0x636f6c64ULL);
    std::vector<std::string> lines;
    for (int rep = 0; rep < 2; ++rep)
        for (const Query &q : pool)
            lines.push_back(renderLine(q));
    rng.shuffle(lines);
    return lines;
}

namespace {

std::vector<uov::IVec>
toIVecs(const std::vector<Vec> &deps)
{
    std::vector<uov::IVec> out;
    for (const Vec &v : deps)
        out.emplace_back(v);
    return out;
}

/** Sums and differences of @p q's vectors that leave its canonical
 *  stencil unchanged when added. */
std::vector<Vec>
impliedPads(const Query &q)
{
    std::set<Vec> candidates;
    for (const Vec &a : q.deps)
        for (const Vec &b : q.deps) {
            Vec sum(a.size()), diff(a.size());
            for (size_t k = 0; k < a.size(); ++k) {
                sum[k] = a[k] + b[k];
                diff[k] = a[k] - b[k];
            }
            candidates.insert(sum);
            if (lexPositive(diff))
                candidates.insert(diff);
        }
    std::vector<uov::IVec> canonical =
        uov::service::canonicalizeStencil(uov::Stencil(toIVecs(q.deps)))
            .deps();
    std::vector<Vec> pads;
    for (const Vec &r : candidates) {
        if (std::find(q.deps.begin(), q.deps.end(), r) != q.deps.end())
            continue;
        std::vector<Vec> padded = q.deps;
        padded.push_back(r);
        uov::Stencil s(toIVecs(padded));
        if (uov::service::canonicalizeStencil(s).deps() == canonical)
            pads.push_back(r);
    }
    return pads;
}

} // namespace

std::vector<std::string>
warmLines(const std::vector<Query> &pool, uint64_t seed, size_t copies,
          std::vector<size_t> &origin)
{
    Rng rng(seed ^ 0x7761726dULL);
    std::vector<std::pair<std::string, size_t>> tagged;
    for (size_t i = 0; i < pool.size(); ++i) {
        const Query &q = pool[i];
        std::vector<Vec> pads = impliedPads(q);
        for (size_t c = 0; c < copies; ++c) {
            std::vector<Vec> deps = q.deps;
            deps.push_back(q.deps[rng.next() % q.deps.size()]);
            if (!pads.empty())
                deps.push_back(pads[rng.next() % pads.size()]);
            rng.shuffle(deps);
            tagged.emplace_back(renderLine(q, deps), i);
        }
    }
    rng.shuffle(tagged);
    std::vector<std::string> lines;
    origin.clear();
    for (auto &[line, i] : tagged) {
        lines.push_back(std::move(line));
        origin.push_back(i);
    }
    return lines;
}

} // namespace perfbench
