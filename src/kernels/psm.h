/**
 * @file
 * Protein string matching (Section 5): an affine-gap similarity DP
 * over two amino-acid strings with a 23 x 23 comparison-weight table.
 *
 * Two recurrences per iteration (i, j):
 *     E[i,j] = max(E[i,j-1] + gap_ext, D[i,j-1] + gap_open)
 *     D[i,j] = max(D[i-1,j-1] + W[a_i, b_j], D[i-1,j] + gap_open,
 *                  E[i,j])
 *
 * The loop-carried dependence stencil is {(1,0),(0,1),(1,1)} with UOV
 * (1,1), so each of the two value arrays OV-maps to an anti-diagonal
 * of n0+n1+1 cells: 2*(n0+n1)+2 total, matching Table 2's
 * "2n0+2n1+1" up to the boundary cell.  The storage-optimized version
 * (after [Alpern/Carter/Gatlin 95]) keeps two columns plus
 * temporaries (~2n0+3) and is locked to the column-sweep schedule.
 *
 * The inner loop's max() comparisons are the branches the paper
 * conjectures dominate on the Ultra 2 / Alpha (Figures 13, 14); the
 * kernels report them to the memory policy.
 */

#ifndef UOV_KERNELS_PSM_H
#define UOV_KERNELS_PSM_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/memory_policy.h"
#include "support/error.h"

namespace uov {

/** Amino-acid alphabet size (20 + B, Z, X). */
inline constexpr int kPsmAlphabet = 23;

/** Measured code versions of protein string matching. */
enum class PsmVariant
{
    Natural,
    NaturalTiled,
    Ov,
    OvTiled,
    StorageOptimized,
};

const std::vector<PsmVariant> &allPsmVariants();
const char *psmVariantName(PsmVariant v);
bool psmVariantTiled(PsmVariant v);

/** Problem and tiling parameters. */
struct PsmConfig
{
    int64_t n0 = 256; ///< length of string a
    int64_t n1 = 256; ///< length of string b
    int64_t tile_i = 64;
    int64_t tile_j = 64;
    int32_t gap_open = -4;
    int32_t gap_ext = -1;

    bool operator==(const PsmConfig &) const = default;
};

/**
 * Temporary-storage cells (Table 2): natural n0*n1 + n0 + n1,
 * OV-mapped 2*n0 + 2*n1 + 1, storage-optimized 2*n0 + 3.
 */
int64_t psmTemporaryStorage(PsmVariant v, int64_t n0, int64_t n1);

/** Deterministic synthetic amino-acid string. */
std::vector<uint8_t> psmString(int64_t length, uint64_t seed);

/** The BLOSUM-like 23 x 23 weight table (deterministic, symmetric). */
const std::vector<int32_t> &psmWeightTable();

namespace detail {

inline constexpr int32_t kNegInf = INT32_MIN / 4;

/// Arithmetic cycles charged per iteration on simulated machines.
inline constexpr double kPsmComputeCycles = 4.0;

} // namespace detail

/**
 * Run one variant; returns D[n0, n1] (identical across variants).
 */
template <typename Mem>
int32_t
runPsm(PsmVariant variant, const PsmConfig &cfg, Mem &mem,
       VirtualArena &arena)
{
    const int64_t n0 = cfg.n0;
    const int64_t n1 = cfg.n1;
    UOV_REQUIRE(n0 >= 1 && n1 >= 1, "psm needs non-empty strings");

    std::vector<uint8_t> a = psmString(n0, 11);
    std::vector<uint8_t> b = psmString(n1, 13);
    const std::vector<int32_t> &w_table = psmWeightTable();

    SimBuffer<uint8_t> sa(arena, static_cast<size_t>(n0));
    SimBuffer<uint8_t> sb(arena, static_cast<size_t>(n1));
    SimBuffer<int32_t> sw(arena, w_table.size());
    std::copy(a.begin(), a.end(), sa.data());
    std::copy(b.begin(), b.end(), sb.data());
    std::copy(w_table.begin(), w_table.end(), sw.data());

    auto weight = [&](int64_t i, int64_t j) {
        int wa = mem.load(sa, static_cast<size_t>(i - 1));
        int wb = mem.load(sb, static_cast<size_t>(j - 1));
        return mem.load(sw,
                        static_cast<size_t>(wa * kPsmAlphabet + wb));
    };
    auto vmax = [&](int32_t x, int32_t y) {
        mem.branch();
        return x > y ? x : y;
    };
    auto init_d = [&](int64_t i, int64_t j) -> int32_t {
        // Boundary conditions: D[0,0]=0, gaps along the edges.
        if (i == 0 && j == 0)
            return 0;
        return cfg.gap_open +
               cfg.gap_ext * static_cast<int32_t>(i + j - 1);
    };

    // Every variant but StorageOptimized is one sweep over a storage
    // layout: D and E buffers of `cells` entries holding point (i, j)
    // at at(i, j), scanned row by row or in rectangular tiles.
    auto sweep = [&](size_t cells, auto at) {
        SimBuffer<int32_t> d(arena, cells);
        SimBuffer<int32_t> e(arena, cells, detail::kNegInf);
        for (int64_t i = 0; i <= n0; ++i)
            d.data()[at(i, 0)] = init_d(i, 0);
        for (int64_t j = 0; j <= n1; ++j)
            d.data()[at(0, j)] = init_d(0, j);

        auto point = [&](int64_t i, int64_t j) {
            int32_t ev = vmax(
                mem.load(e, at(i, j - 1)) + cfg.gap_ext,
                mem.load(d, at(i, j - 1)) + cfg.gap_open);
            int32_t dv =
                vmax(vmax(mem.load(d, at(i - 1, j - 1)) + weight(i, j),
                          mem.load(d, at(i - 1, j)) + cfg.gap_open),
                     ev);
            mem.compute(detail::kPsmComputeCycles);
            mem.store(e, at(i, j), ev);
            mem.store(d, at(i, j), dv);
        };
        if (psmVariantTiled(variant)) {
            for (int64_t ib = 1; ib <= n0; ib += cfg.tile_i)
                for (int64_t jb = 1; jb <= n1; jb += cfg.tile_j)
                    for (int64_t i = ib;
                         i < ib + cfg.tile_i && i <= n0; ++i)
                        for (int64_t j = jb;
                             j < jb + cfg.tile_j && j <= n1; ++j)
                            point(i, j);
        } else {
            for (int64_t i = 1; i <= n0; ++i)
                for (int64_t j = 1; j <= n1; ++j)
                    point(i, j);
        }
        return mem.load(d, at(n0, n1));
    };

    switch (variant) {
      case PsmVariant::Natural:
      case PsmVariant::NaturalTiled:
        return sweep(static_cast<size_t>((n0 + 1) * (n1 + 1)),
                     [n1](int64_t i, int64_t j) {
                         return static_cast<size_t>(i * (n1 + 1) + j);
                     });

      case PsmVariant::Ov:
      case PsmVariant::OvTiled:
        // UOV (1,1): SM(q) = (-1,1).q + n0, one anti-diagonal of
        // n0+n1+1 cells per array.
        return sweep(static_cast<size_t>(n0 + n1 + 1),
                     [n0](int64_t i, int64_t j) {
                         return static_cast<size_t>(j - i + n0);
                     });

      case PsmVariant::StorageOptimized: {
        // Column sweep with in-place columns: D and E columns of
        // n0+1 entries plus rotating scalars (~2n0+3 cells).  The
        // in-place updates create storage dependences that lock the
        // schedule; this version cannot be tiled.
        SimBuffer<int32_t> dcol(arena, static_cast<size_t>(n0 + 1));
        SimBuffer<int32_t> ecol(arena, static_cast<size_t>(n0 + 1),
                                detail::kNegInf);
        for (int64_t i = 0; i <= n0; ++i)
            dcol.data()[static_cast<size_t>(i)] = init_d(i, 0);

        for (int64_t j = 1; j <= n1; ++j) {
            int32_t diag = mem.load(dcol, 0); // D[0, j-1]
            mem.store(dcol, 0, init_d(0, j));
            for (int64_t i = 1; i <= n0; ++i) {
                auto ii = static_cast<size_t>(i);
                int32_t d_old = mem.load(dcol, ii); // D[i, j-1]
                int32_t ev = vmax(mem.load(ecol, ii) + cfg.gap_ext,
                                  d_old + cfg.gap_open);
                int32_t dv =
                    vmax(vmax(diag + weight(i, j),
                              mem.load(dcol, ii - 1) + cfg.gap_open),
                         ev);
                mem.compute(detail::kPsmComputeCycles);
                mem.store(ecol, ii, ev);
                mem.store(dcol, ii, dv);
                diag = d_old;
            }
        }
        return mem.load(dcol, static_cast<size_t>(n0));
      }
    }
    UOV_UNREACHABLE("bad psm variant");
}

} // namespace uov

#endif // UOV_KERNELS_PSM_H
