/**
 * @file
 * 3-D extension kernel: a 2-D heat (5-point Jacobi) stencil stepped
 * through time -- the (t, x, y) iteration space the paper's machinery
 * generalizes to.
 *
 * Dependence stencil {(1,0,0), (1,±1,0), (1,0,±1)}; the shortest UOV
 * is (2,0,0) (two planes of storage, found by the same search that
 * yields (2,0) in 2-D).  Variants:
 *
 *   Natural           (T+1) x N x M array
 *   NaturalTiled      same storage, time-skewed 3-D tiling
 *   Ov                two N x M planes, A[(t mod 2)][x][y]
 *   OvTiled           time-skewed tiling over the two planes
 *   StorageOptimized  in-place plane + two row buffers
 *                     (N*M + 2*M cells, schedule-locked)
 *
 * All variants produce bit-identical results.
 */

#ifndef UOV_KERNELS_HEAT3D_H
#define UOV_KERNELS_HEAT3D_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/memory_policy.h"
#include "support/error.h"
#include "support/rng.h"

namespace uov {

enum class Heat3DVariant
{
    Natural,
    NaturalTiled,
    Ov,
    OvTiled,
    StorageOptimized,
};

const std::vector<Heat3DVariant> &allHeat3DVariants();
const char *heat3DVariantName(Heat3DVariant v);
bool heat3DVariantTiled(Heat3DVariant v);

struct Heat3DConfig
{
    int64_t nx = 64;   ///< N
    int64_t ny = 64;   ///< M
    int64_t steps = 8; ///< T
    int64_t tile_t = 4;
    int64_t tile_x = 32;
    int64_t tile_y = 32;

    bool operator==(const Heat3DConfig &) const = default;
};

/** Deterministic initial plane. */
std::vector<float> heat3DInput(int64_t nx, int64_t ny,
                               uint64_t seed = 5);

namespace detail {

inline constexpr float kHW0 = 0.5f;  // centre
inline constexpr float kHW1 = 0.125f; // each neighbour

/** Time-skewed 3-D tiling driver: body(t, x, y) in tile order. */
template <typename Body>
void
forEachSkewTiled3D(const Heat3DConfig &cfg, Body body)
{
    // Skew u = x + t, w = y + t: all dependences become
    // component-wise non-negative, so rectangular tiles in (t, u, w)
    // executed lexicographically are legal.
    const int64_t u_min = 1, u_max = cfg.steps + cfg.nx - 1;
    const int64_t w_min = 1, w_max = cfg.steps + cfg.ny - 1;
    for (int64_t tb = 1; tb <= cfg.steps; tb += cfg.tile_t) {
        for (int64_t ub = u_min; ub <= u_max; ub += cfg.tile_x) {
            for (int64_t wb = w_min; wb <= w_max; wb += cfg.tile_y) {
                int64_t t_end = std::min(tb + cfg.tile_t - 1, cfg.steps);
                for (int64_t t = tb; t <= t_end; ++t) {
                    int64_t u_lo = std::max(ub, t);
                    int64_t u_hi =
                        std::min(ub + cfg.tile_x - 1, t + cfg.nx - 1);
                    for (int64_t u = u_lo; u <= u_hi; ++u) {
                        int64_t w_lo = std::max(wb, t);
                        int64_t w_hi = std::min(wb + cfg.tile_y - 1,
                                                t + cfg.ny - 1);
                        for (int64_t w = w_lo; w <= w_hi; ++w)
                            body(t, u - t, w - t);
                    }
                }
            }
        }
    }
}

} // namespace detail

/** Run one variant; returns the sum of the final plane. */
template <typename Mem>
double
runHeat3D(Heat3DVariant variant, const Heat3DConfig &cfg, Mem &mem,
          VirtualArena &arena)
{
    using detail::kHW0;
    using detail::kHW1;
    const int64_t nx = cfg.nx, ny = cfg.ny, steps = cfg.steps;
    UOV_REQUIRE(nx >= 4 && ny >= 4, "heat3d needs nx, ny >= 4");
    UOV_REQUIRE(steps >= 1, "heat3d needs steps >= 1");

    std::vector<float> input = heat3DInput(nx, ny);

    auto plane_sum = [&](auto load_final) {
        double acc = 0;
        for (int64_t x = 0; x < nx; ++x)
            for (int64_t y = 0; y < ny; ++y)
                acc += load_final(x, y);
        return acc;
    };

    // Every variant but StorageOptimized is one sweep over a storage
    // layout: a buffer of `cells` floats holding point (t, x, y) at
    // at(t, x, y), scanned plane by plane or by the skewed tiling
    // driver.
    auto sweep = [&](size_t cells, auto at) {
        SimBuffer<float> a(arena, cells);
        for (int64_t x = 0; x < nx; ++x)
            for (int64_t y = 0; y < ny; ++y)
                a.data()[at(0, x, y)] =
                    input[static_cast<size_t>(x * ny + y)];
        auto point = [&](int64_t t, int64_t x, int64_t y) {
            float v;
            if (x >= 1 && x < nx - 1 && y >= 1 && y < ny - 1) {
                v = kHW0 * mem.load(a, at(t - 1, x, y)) +
                    kHW1 * (mem.load(a, at(t - 1, x - 1, y)) +
                            mem.load(a, at(t - 1, x + 1, y)) +
                            mem.load(a, at(t - 1, x, y - 1)) +
                            mem.load(a, at(t - 1, x, y + 1)));
                mem.compute(4.0);
            } else {
                v = mem.load(a, at(t - 1, x, y));
            }
            mem.store(a, at(t, x, y), v);
        };
        if (heat3DVariantTiled(variant)) {
            detail::forEachSkewTiled3D(cfg, point);
        } else {
            for (int64_t t = 1; t <= steps; ++t)
                for (int64_t x = 0; x < nx; ++x)
                    for (int64_t y = 0; y < ny; ++y)
                        point(t, x, y);
        }
        return plane_sum([&](int64_t x, int64_t y) {
            return mem.load(a, at(steps, x, y));
        });
    };

    switch (variant) {
      case Heat3DVariant::Natural:
      case Heat3DVariant::NaturalTiled:
        return sweep(static_cast<size_t>((steps + 1) * nx * ny),
                     [nx, ny](int64_t t, int64_t x, int64_t y) {
                         return static_cast<size_t>((t * nx + x) * ny +
                                                    y);
                     });

      case Heat3DVariant::Ov:
      case Heat3DVariant::OvTiled:
        // UOV (2,0,0): two planes.
        return sweep(static_cast<size_t>(2 * nx * ny),
                     [nx, ny](int64_t t, int64_t x, int64_t y) {
                         return static_cast<size_t>(
                             ((t & 1) * nx + x) * ny + y);
                     });

      case Heat3DVariant::StorageOptimized: {
        // In-place plane with a one-row history buffer: when updating
        // row x, `prev_row` holds the t-1 values of row x-1 and
        // `cur_row` buffers row x before overwrite.  N*M + 2*M cells
        // (+ scalars); the in-place writes lock the schedule.
        SimBuffer<float> a(arena, static_cast<size_t>(nx * ny));
        SimBuffer<float> prev_row(arena, static_cast<size_t>(ny));
        SimBuffer<float> cur_row(arena, static_cast<size_t>(ny));
        for (int64_t i = 0; i < nx * ny; ++i)
            a.data()[i] = input[static_cast<size_t>(i)];
        auto at = [ny](int64_t x, int64_t y) {
            return static_cast<size_t>(x * ny + y);
        };
        for (int64_t t = 1; t <= steps; ++t) {
            for (int64_t y = 0; y < ny; ++y)
                mem.store(prev_row, static_cast<size_t>(y),
                          mem.load(a, at(0, y)));
            for (int64_t x = 1; x < nx - 1; ++x) {
                for (int64_t y = 0; y < ny; ++y)
                    mem.store(cur_row, static_cast<size_t>(y),
                              mem.load(a, at(x, y)));
                for (int64_t y = 1; y < ny - 1; ++y) {
                    float v =
                        kHW0 * mem.load(cur_row,
                                        static_cast<size_t>(y)) +
                        kHW1 *
                            (mem.load(prev_row,
                                      static_cast<size_t>(y)) +
                             mem.load(a, at(x + 1, y)) +
                             mem.load(cur_row,
                                      static_cast<size_t>(y - 1)) +
                             mem.load(cur_row,
                                      static_cast<size_t>(y + 1)));
                    mem.compute(4.0);
                    mem.store(a, at(x, y), v);
                }
                for (int64_t y = 0; y < ny; ++y)
                    mem.store(prev_row, static_cast<size_t>(y),
                              mem.load(cur_row,
                                       static_cast<size_t>(y)));
            }
        }
        return plane_sum([&](int64_t x, int64_t y) {
            return mem.load(a, at(x, y));
        });
      }
    }
    UOV_UNREACHABLE("bad heat3d variant");
}

} // namespace uov

#endif // UOV_KERNELS_HEAT3D_H
