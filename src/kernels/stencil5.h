/**
 * @file
 * The paper's 5-point stencil code (Section 5) in every measured
 * storage variant.
 *
 * A 1-D array of length L evolves for T time steps; each element
 * becomes a weighted average of its five neighbours in the previous
 * time step.  The dependence stencil is {(1,-2),(1,-1),(1,0),(1,1),
 * (1,2)} and the UOV is (2,0) (Figure 5), so OV-mapped code needs two
 * rows of storage -- consecutive ("blocked") or interleaved.
 *
 * Variants (Table 1 / Figures 7, 9-11):
 *   Natural              (T+1) x L array, row-major
 *   NaturalTiled         same storage, skewed (time) tiling
 *   Ov                   2 x L rows, A[(t mod 2)*L + i]
 *   OvInterleaved        2 x L interleaved, A[2*i + (t mod 2)]
 *   OvTiled              skewed tiling over Ov storage
 *   OvInterleavedTiled   skewed tiling over interleaved storage
 *   StorageOptimized     in-place row + 3 temporaries (untilable)
 *
 * Every variant computes bit-identical results (same per-point FP
 * expression); the kernels are templated on the memory policy so one
 * code path serves both wall-clock and simulated-machine runs.
 */

#ifndef UOV_KERNELS_STENCIL5_H
#define UOV_KERNELS_STENCIL5_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/memory_policy.h"
#include "support/error.h"
#include "support/rng.h"

namespace uov {

/** The measured code versions of the 5-point stencil. */
enum class Stencil5Variant
{
    Natural,
    NaturalTiled,
    Ov,
    OvInterleaved,
    OvTiled,
    OvInterleavedTiled,
    StorageOptimized,
};

/** All variants, in the paper's reporting order. */
const std::vector<Stencil5Variant> &allStencil5Variants();

const char *stencil5VariantName(Stencil5Variant v);
bool stencil5VariantTiled(Stencil5Variant v);

/** Problem and tiling parameters. */
struct Stencil5Config
{
    int64_t length = 1024; ///< L
    int64_t steps = 16;    ///< T
    int64_t tile_t = 8;    ///< time-tile height (tiled variants)
    int64_t tile_s = 512;  ///< skewed-space tile width

    bool operator==(const Stencil5Config &) const = default;
};

/**
 * Temporary-storage cells of each variant (Table 1): natural T*L,
 * OV-mapped 2*L, storage-optimized L+3.
 */
int64_t stencil5TemporaryStorage(Stencil5Variant v, int64_t length,
                                 int64_t steps);

/** Deterministic input row for a given length. */
std::vector<float> stencil5Input(int64_t length, uint64_t seed = 1);

namespace detail {

/** Stencil weights (sum to 1). */
inline constexpr float kW0 = 0.10f, kW1 = 0.20f, kW2 = 0.40f,
                       kW3 = 0.20f, kW4 = 0.10f;

/// Arithmetic cycles charged per interior point on simulated machines.
inline constexpr double kStencilComputeCycles = 3.0;

/** Shared skewed-tiling driver: calls body(t, i) in tile order. */
template <typename Body>
void
forEachSkewTiled(int64_t steps, int64_t length, int64_t tile_t,
                 int64_t tile_s, Body body)
{
    // Skew s = i + 2t makes every dependence component-wise
    // non-negative, so rectangular (tb, sb) tiles in (t, s) space are
    // atomic-legal (Section 2; legality is tested in
    // tests/test_kernels_stencil5.cc against the schedule layer).
    const int64_t s_min = 2;           // t = 1, i = 0 -> s = 2
    const int64_t s_max = 2 * steps + length - 1;
    for (int64_t tb = 1; tb <= steps; tb += tile_t) {
        for (int64_t sb = s_min; sb <= s_max; sb += tile_s) {
            int64_t t_end = std::min(tb + tile_t - 1, steps);
            for (int64_t t = tb; t <= t_end; ++t) {
                int64_t s_lo = std::max(sb, 2 * t);
                int64_t s_hi =
                    std::min(sb + tile_s - 1, 2 * t + length - 1);
                for (int64_t s = s_lo; s <= s_hi; ++s)
                    body(t, s - 2 * t);
            }
        }
    }
}

} // namespace detail

/**
 * Run one variant; returns the sum of the final row (identical across
 * variants for the same input).  @p mem is NativeMem or SimMem.
 */
template <typename Mem>
double
runStencil5(Stencil5Variant variant, const Stencil5Config &cfg, Mem &mem,
            VirtualArena &arena)
{
    using detail::kW0;
    using detail::kW1;
    using detail::kW2;
    using detail::kW3;
    using detail::kW4;

    const int64_t len = cfg.length;
    const int64_t steps = cfg.steps;
    UOV_REQUIRE(len >= 8, "stencil needs length >= 8");
    UOV_REQUIRE(steps >= 1, "stencil needs at least one step");

    std::vector<float> input = stencil5Input(len);

    auto interior = [&](auto load_prev, int64_t i) {
        float v = kW0 * load_prev(i - 2) + kW1 * load_prev(i - 1) +
                  kW2 * load_prev(i) + kW3 * load_prev(i + 1) +
                  kW4 * load_prev(i + 2);
        mem.compute(detail::kStencilComputeCycles);
        return v;
    };

    auto sum_row = [&](auto load_final) {
        double acc = 0;
        for (int64_t i = 0; i < len; ++i)
            acc += load_final(i);
        return acc;
    };

    // Every variant but StorageOptimized is one sweep over a storage
    // layout: a buffer of `cells` floats holding point (t, i) at
    // cell(t, i), scanned row by row or by the skewed tiling driver.
    auto sweep = [&](size_t cells, auto cell) {
        SimBuffer<float> a(arena, cells);
        for (int64_t i = 0; i < len; ++i)
            a.data()[cell(0, i)] = input[static_cast<size_t>(i)];
        auto point = [&](int64_t t, int64_t i) {
            auto prev = [&](int64_t k) {
                return mem.load(a, cell(t - 1, k));
            };
            float v = (i >= 2 && i < len - 2)
                          ? interior(prev, i)
                          : prev(i); // boundary copy
            mem.store(a, cell(t, i), v);
        };
        if (stencil5VariantTiled(variant)) {
            detail::forEachSkewTiled(steps, len, cfg.tile_t, cfg.tile_s,
                                     point);
        } else {
            for (int64_t t = 1; t <= steps; ++t)
                for (int64_t i = 0; i < len; ++i)
                    point(t, i);
        }
        return sum_row([&](int64_t i) {
            return mem.load(a, cell(steps, i));
        });
    };

    switch (variant) {
      case Stencil5Variant::Natural:
      case Stencil5Variant::NaturalTiled:
        return sweep(static_cast<size_t>((steps + 1) * len),
                     [len](int64_t t, int64_t i) {
                         return static_cast<size_t>(t * len + i);
                     });

      case Stencil5Variant::Ov:
      case Stencil5Variant::OvTiled:
        // UOV (2,0), blocked: two consecutive rows.
        return sweep(static_cast<size_t>(2 * len),
                     [len](int64_t t, int64_t i) {
                         return static_cast<size_t>((t & 1) * len + i);
                     });

      case Stencil5Variant::OvInterleaved:
      case Stencil5Variant::OvInterleavedTiled:
        // UOV (2,0), interleaved: SM(q) = (0,2).q + (t mod 2)
        // (Figure 5 literally).
        return sweep(static_cast<size_t>(2 * len),
                     [](int64_t t, int64_t i) {
                         return static_cast<size_t>(2 * i + (t & 1));
                     });

      case Stencil5Variant::StorageOptimized: {
        // In-place row plus three rotating temporaries (Table 1:
        // L + 3).  The temporaries create storage dependences between
        // every pair of iterations, so only this schedule is legal --
        // the code cannot be tiled (Figure 1(c)'s phenomenon).
        SimBuffer<float> a(arena, static_cast<size_t>(len));
        for (int64_t i = 0; i < len; ++i)
            a.data()[i] = input[static_cast<size_t>(i)];
        for (int64_t t = 1; t <= steps; ++t) {
            float tm2 = mem.load(a, 0);
            float tm1 = mem.load(a, 1);
            for (int64_t i = 2; i < len - 2; ++i) {
                float cur = mem.load(a, static_cast<size_t>(i));
                float v = kW0 * tm2 + kW1 * tm1 + kW2 * cur +
                          kW3 * mem.load(a, static_cast<size_t>(i + 1)) +
                          kW4 * mem.load(a, static_cast<size_t>(i + 2));
                mem.compute(detail::kStencilComputeCycles);
                mem.store(a, static_cast<size_t>(i), v);
                tm2 = tm1;
                tm1 = cur;
            }
        }
        return sum_row([&](int64_t i) {
            return mem.load(a, static_cast<size_t>(i));
        });
      }
    }
    UOV_UNREACHABLE("bad stencil variant");
}

} // namespace uov

#endif // UOV_KERNELS_STENCIL5_H
