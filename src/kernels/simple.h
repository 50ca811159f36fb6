/**
 * @file
 * Figure 1's simple example in its three storage versions:
 *
 *   (a) Original / natural:  A[i,j] = f(A[i-1,j], A[i,j-1],
 *       A[i-1,j-1]) over a full (n+1) x (m+1) array -- n*m temporary
 *       cells beyond the inputs.
 *   (b) OV-mapped with UOV (1,1): one anti-diagonal,
 *       SM(q) = (-1,1).q + n, n+m+1 cells -- still tilable.
 *   (c) Storage-optimized: one row of m+1 plus temp1/temp2 -- m+2
 *       cells, schedule locked to the original loop order.
 *
 * f is a fixed arithmetic combination so all three versions produce
 * identical outputs (the last row of A).
 */

#ifndef UOV_KERNELS_SIMPLE_H
#define UOV_KERNELS_SIMPLE_H

#include <cstdint>
#include <vector>

#include "sim/memory_policy.h"
#include "support/error.h"

namespace uov {

/** Figure 1's three code versions. */
enum class SimpleVariant
{
    Natural,          ///< Figure 1(a)
    OvMapped,         ///< Figure 1(b)
    StorageOptimized, ///< Figure 1(c)
};

const char *simpleVariantName(SimpleVariant v);

/** Storage cells used for A's values (Figure 1 captions). */
int64_t simpleStorage(SimpleVariant v, int64_t n, int64_t m);

namespace detail {

/**
 * Figure 1's f: a cheap, order-sensitive integer mix.  The values grow
 * geometrically and wrap modulo 2^64; unsigned arithmetic makes the
 * wrap defined.
 */
inline int64_t
simpleF(int64_t up, int64_t left, int64_t diag)
{
    auto u = [](int64_t v) { return static_cast<uint64_t>(v); };
    return static_cast<int64_t>(u(up) * 3 + u(left) * 5 - u(diag) * 2 +
                                1);
}

} // namespace detail

/**
 * Run one version over the n x m iteration space.  Row 0 of A is the
 * input (i + 1 here); column 0 holds the constant 7 (the paper: "the
 * zero-th column contains the same constant value in each entry").
 * Returns the sum of the n-th row, the loop's only live-out data.
 */
template <typename Mem>
int64_t
runSimple(SimpleVariant variant, int64_t n, int64_t m, Mem &mem,
          VirtualArena &arena)
{
    UOV_REQUIRE(n >= 1 && m >= 1, "need a non-empty iteration space");
    constexpr int64_t kColumnConstant = 7;
    auto input = [](int64_t j) { return j + 1; };

    // Sum of the last row, wrapping modulo 2^64 like simpleF.
    auto row_sum = [&](auto load_final) {
        uint64_t sum = 0;
        for (int64_t j = 1; j <= m; ++j)
            sum += static_cast<uint64_t>(load_final(j));
        return static_cast<int64_t>(sum);
    };

    // Natural and OV-mapped storage are one sweep over a storage
    // layout: a buffer of `cells` values holding A[i, j] at at(i, j).
    auto sweep = [&](size_t cells, auto at) {
        SimBuffer<int64_t> a(arena, cells);
        for (int64_t j = 0; j <= m; ++j)
            a.data()[at(0, j)] = input(j);
        for (int64_t i = 0; i <= n; ++i)
            a.data()[at(i, 0)] = kColumnConstant;
        for (int64_t i = 1; i <= n; ++i) {
            for (int64_t j = 1; j <= m; ++j) {
                int64_t v = detail::simpleF(
                    mem.load(a, at(i - 1, j)),
                    mem.load(a, at(i, j - 1)),
                    mem.load(a, at(i - 1, j - 1)));
                mem.compute(2.0);
                mem.store(a, at(i, j), v);
            }
        }
        return row_sum([&](int64_t j) { return mem.load(a, at(n, j)); });
    };

    switch (variant) {
      case SimpleVariant::Natural:
        return sweep(static_cast<size_t>((n + 1) * (m + 1)),
                     [m](int64_t i, int64_t j) {
                         return static_cast<size_t>(i * (m + 1) + j);
                     });

      case SimpleVariant::OvMapped:
        // Figure 1(b): A[n - i + j] with n+m+1 cells.
        return sweep(static_cast<size_t>(n + m + 1),
                     [n](int64_t i, int64_t j) {
                         return static_cast<size_t>(n - i + j);
                     });

      case SimpleVariant::StorageOptimized: {
        // Figure 1(c): one row plus temp1/temp2; m+2 cells.
        SimBuffer<int64_t> a(arena, static_cast<size_t>(m + 1));
        for (int64_t j = 0; j <= m; ++j)
            a.data()[static_cast<size_t>(j)] = input(j);
        for (int64_t i = 1; i <= n; ++i) {
            int64_t temp2 = kColumnConstant; // A[i-1, 0]
            // A[0] plays the role of the constant column within the
            // row sweep.
            mem.store(a, 0, kColumnConstant);
            for (int64_t j = 1; j <= m; ++j) {
                auto jj = static_cast<size_t>(j);
                int64_t temp1 = mem.load(a, jj); // A[i-1, j]
                int64_t v = detail::simpleF(
                    temp1, mem.load(a, jj - 1), temp2);
                mem.compute(2.0);
                mem.store(a, jj, v);
                temp2 = temp1;
            }
        }
        return row_sum([&](int64_t j) {
            return mem.load(a, static_cast<size_t>(j));
        });
      }
    }
    UOV_UNREACHABLE("bad simple variant");
}

} // namespace uov

#endif // UOV_KERNELS_SIMPLE_H
