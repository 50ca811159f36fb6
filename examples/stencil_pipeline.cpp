/**
 * @file
 * End-to-end compiler-pipeline walkthrough on a time-stepped stencil:
 *
 *   loop nest (IR)  ->  value-based dependence analysis  ->  region
 *   analysis  ->  UOV search  ->  storage mapping  ->  legal-schedule
 *   construction (skewed tiling)  ->  verified execution under many
 *   schedules  ->  wall-clock comparison of the kernel variants.
 *
 * This is the full workflow a compiler would run, exercised through
 * the library's public API.
 */

#include <chrono>
#include <iostream>
#include <memory>

#include "analysis/pipeline.h"
#include "kernels/stencil5.h"
#include "schedule/executor.h"
#include "schedule/legality.h"
#include "support/table.h"

using namespace uov;

int
main()
{
    std::cout << "=== 1. The program ===\n";
    int64_t t_steps = 24, len = 96;
    LoopNest nest = nests::fivePointStencil(t_steps, len);
    std::cout << nest.str() << "\n"
              << "B[t,i] = w.B[t-1, i-2..i+2]\n\n";

    std::cout << "=== 2. Analysis and storage planning ===\n";
    MappingPlan plan = planStorageMapping(nest, 0);
    std::cout << plan.str() << "\n\n";

    std::cout << "=== 3. Scheduling ===\n";
    Stencil stencil = plan.stencil;
    std::cout << "rectangular tiling legal as-is? "
              << (tilingLegal(IMatrix::identity(2), stencil) ? "yes"
                                                             : "no")
              << "\n";
    IMatrix skew = skewToNonNegative(stencil);
    std::cout << "skew transform " << skew.str()
              << " -> tiling legal? "
              << (tilingLegal(skew, stencil) ? "yes" : "no") << "\n\n";

    std::cout << "=== 4. Verified execution under many schedules ===\n";
    StencilComputation comp(stencil);
    IVec lo{0, 0}, hi{t_steps, len - 1};

    std::vector<std::unique_ptr<Schedule>> schedules;
    schedules.push_back(std::make_unique<TiledSchedule>(
        TiledSchedule(IMatrix::identity(2), {}, "lex")));
    schedules.push_back(std::make_unique<TiledSchedule>(
        TiledSchedule(skew, {{8, 32}}, "skew-tile")));
    schedules.push_back(std::make_unique<AffineSchedule>(
        AffineSchedule({IVec{3, 1}}, "wavefront(3, 1)")));
    schedules.push_back(
        std::make_unique<RandomTopoSchedule>(stencil, 2026));

    Table t("OV-mapped execution, UOV " + plan.search.best_uov.str());
    t.header({"schedule", "points", "mismatches", "clobbers",
              "verdict"});
    bool all_ok = true;
    for (const auto &s : schedules) {
        ExecutionResult r = runWithOvStorage(comp, *s, lo, hi,
                                             plan.search.best_uov);
        bool ok = r.correct() && r.clobbers == 0;
        all_ok = all_ok && ok;
        t.addRow()
            .cell(r.schedule_name)
            .cell(r.points)
            .cell(r.mismatches)
            .cell(r.clobbers)
            .cell(ok ? "correct" : "BROKEN");
    }
    t.print(std::cout);
    std::cout << "\nnegative control: a too-short OV (1,0) under "
                 "tiling:\n";
    ExecutionResult bad = runWithOvStorage(
        comp, *schedules[1], lo, hi, IVec{1, 0});
    std::cout << "  mismatches=" << bad.mismatches
              << " clobbers=" << bad.clobbers
              << (bad.correct() ? "  (unexpectedly fine!)"
                                : "  -> storage too aggressive, as "
                                  "predicted") << "\n\n";

    std::cout << "=== 5. Wall-clock kernels ===\n";
    Stencil5Config cfg;
    cfg.length = 1 << 20;
    cfg.steps = 8;
    cfg.tile_t = 8;
    cfg.tile_s = 2048;
    Table w("Host timing, L=2^20, T=8");
    w.header({"variant", "ms/run", "temp storage (floats)"});
    for (Stencil5Variant v : allStencil5Variants()) {
        auto start = std::chrono::steady_clock::now();
        VirtualArena arena;
        NativeMem mem;
        volatile double sink = runStencil5(v, cfg, mem, arena);
        (void)sink;
        auto stop = std::chrono::steady_clock::now();
        double ms =
            std::chrono::duration<double, std::milli>(stop - start)
                .count();
        w.addRow()
            .cell(stencil5VariantName(v))
            .cell(ms, 1)
            .cell(formatCount(stencil5TemporaryStorage(v, cfg.length,
                                                       cfg.steps)));
    }
    w.print(std::cout);

    return all_ok && !bad.correct() ? 0 : 1;
}
