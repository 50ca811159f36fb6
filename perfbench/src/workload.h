/**
 * @file
 * Seeded request generators for the four benchmark workloads.
 *
 * The generators render protocol lines themselves, for all four verbs,
 * from the benchmark's own SplitMix64 stream: the same seed gives the
 * same lines on every build, and nothing here depends on the fuzz
 * generators the program's tests use.
 */

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** SplitMix64: the benchmark's only source of randomness. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : _state(seed) {}

    uint64_t next();

    /** Uniform integer in [lo, hi]. */
    int64_t range(int64_t lo, int64_t hi);

    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i) {
            size_t j = static_cast<size_t>(next() % i);
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    uint64_t _state;
};

using Vec = std::vector<int64_t>;

/** One distinct query of a workload pool. */
struct Query
{
    std::string verb; ///< shortest | storage | native | tune
    std::vector<Vec> deps;
    Vec lo, hi; ///< the ISG box; empty for shortest

    /** Integer points in the box (1 when unbounded). */
    int64_t points() const;
};

/** Render @p q as one protocol line, deps presented as @p deps. */
std::string renderLine(const Query &q, const std::vector<Vec> &deps);
std::string renderLine(const Query &q);

/**
 * @p count distinct shortest/storage queries drawn like the fuzz
 * corpus: 2-3 dimensions, 1-4 lexicographically positive dependences
 * (2-4 for shortest) with coordinates in [-3, 3], storage boxes of
 * side 4-12; stratified by objective, dimension and dependence count,
 * after three fixed memory-heavy storage queries.
 */
std::vector<Query> solvePool(uint64_t seed, size_t count);

/**
 * Native pool: the paper kernels stencil5, psm and diamond3 and the
 * 3-D heat3d and wide3d, each over two box sizes whose extents the
 * seed jitters, so every query emits distinct C source.
 */
std::vector<Query> nativePool(uint64_t seed);

/**
 * Tune pool: the 2-D paper kernels over two fixed box sizes each; the
 * seed only orders them.
 */
std::vector<Query> tunePool(uint64_t seed);

/** A small fixed native or tune query for untimed warm-up. */
Query warmupQuery(const std::string &verb);

/**
 * Each query's line twice, shuffled: the cold-solve request stream
 * (first occurrence searches, second hits the cache).
 */
std::vector<std::string> coldLines(const std::vector<Query> &pool,
                                   uint64_t seed);

/**
 * The warm-restart stream: @p copies presentations of every pool
 * query, shuffled.  Each presentation shuffles the dependence order,
 * repeats one dependence, and adds implied dependences that
 * canonicalization removes (sums and differences of the query's own
 * vectors, kept only when the canonical stencil is unchanged), so all
 * presentations of a query share one cache key.  @p origin receives
 * each line's pool index.
 */
std::vector<std::string> warmLines(const std::vector<Query> &pool,
                                   uint64_t seed, size_t copies,
                                   std::vector<size_t> &origin);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
