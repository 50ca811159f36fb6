/**
 * @file
 * google-benchmark suite over the kernel variants on the host: the
 * wall-clock complement to the simulated-machine figure benches.  The
 * relative shapes (tiled OV-mapped competitive at large sizes; natural
 * degrading as its footprint explodes) are architecture-robust even
 * though the host is not a 1998 machine.
 *
 * --native-table switches to the codegen comparison instead: each
 * config is measured by tune::JitEvaluator::measureNative, as 'query
 * native' is (storage mapping plan, lexicographic and register-tiled
 * kernels JIT-compiled and verified bit-exactly against one
 * interpreter run, each kernel the median of 5 timed runs), and
 * printed as an interpreter-vs-native speedup table with a
 * nodes-touched traffic column (nodes x (reads+1) x 8 bytes, reported
 * as GB and as the register-tiled kernel's GB/s).  Skips with a
 * message when no host C compiler is available.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "codegen/jit.h"
#include "kernels/psm.h"
#include "kernels/simple.h"
#include "kernels/stencil5.h"
#include "support/error.h"
#include "tune/evaluator.h"

using namespace uov;

namespace {

void
BM_Stencil5(benchmark::State &state)
{
    auto variant = static_cast<Stencil5Variant>(state.range(0));
    Stencil5Config cfg;
    cfg.length = state.range(1);
    cfg.steps = 8;
    cfg.tile_t = 8;
    cfg.tile_s = 2048;
    for (auto _ : state) {
        VirtualArena arena;
        NativeMem mem;
        benchmark::DoNotOptimize(runStencil5(variant, cfg, mem, arena));
    }
    state.SetItemsProcessed(state.iterations() * cfg.length *
                            cfg.steps);
    state.SetLabel(stencil5VariantName(variant));
}

void
BM_Psm(benchmark::State &state)
{
    auto variant = static_cast<PsmVariant>(state.range(0));
    PsmConfig cfg;
    cfg.n0 = cfg.n1 = state.range(1);
    cfg.tile_i = cfg.tile_j = 128;
    for (auto _ : state) {
        VirtualArena arena;
        NativeMem mem;
        benchmark::DoNotOptimize(runPsm(variant, cfg, mem, arena));
    }
    state.SetItemsProcessed(state.iterations() * cfg.n0 * cfg.n1);
    state.SetLabel(psmVariantName(variant));
}

void
BM_Simple(benchmark::State &state)
{
    auto variant = static_cast<SimpleVariant>(state.range(0));
    int64_t n = state.range(1);
    for (auto _ : state) {
        VirtualArena arena;
        NativeMem mem;
        benchmark::DoNotOptimize(
            runSimple(variant, n, n, mem, arena));
    }
    state.SetItemsProcessed(state.iterations() * n * n);
    state.SetLabel(simpleVariantName(variant));
}

void
registerAll()
{
    for (Stencil5Variant v : allStencil5Variants()) {
        for (int64_t len : {int64_t{4096}, int64_t{1048576}}) {
            benchmark::RegisterBenchmark("BM_Stencil5", BM_Stencil5)
                ->Args({static_cast<int64_t>(v), len})
                ->MinTime(0.05);
        }
    }
    for (PsmVariant v : allPsmVariants()) {
        for (int64_t n : {int64_t{128}, int64_t{1024}}) {
            benchmark::RegisterBenchmark("BM_Psm", BM_Psm)
                ->Args({static_cast<int64_t>(v), n})
                ->MinTime(0.05);
        }
    }
    for (SimpleVariant v :
         {SimpleVariant::Natural, SimpleVariant::OvMapped,
          SimpleVariant::StorageOptimized}) {
        benchmark::RegisterBenchmark("BM_Simple", BM_Simple)
            ->Args({static_cast<int64_t>(v), 512})
            ->MinTime(0.05);
    }
}

// --- --native-table: interpreter vs JIT-compiled kernels ----------

/** The 3-D heat nest, sized for benchmarking. */
LoopNest
heatNest3d(int64_t t_steps, int64_t n)
{
    LoopNest nest("heat", IVec{1, 0, 0}, IVec{t_steps, n - 1, n - 1});
    Statement s;
    s.name = "H";
    s.write = uniformAccess("H", IVec{0, 0, 0});
    s.reads = {uniformAccess("H", IVec{-1, 0, 0}),
               uniformAccess("H", IVec{-1, 1, 0}),
               uniformAccess("H", IVec{-1, -1, 0}),
               uniformAccess("H", IVec{-1, 0, 1}),
               uniformAccess("H", IVec{-1, 0, -1})};
    nest.addStatement(s);
    return nest;
}

/** Measure @p nest and print its row of the table. */
void
printNativeRow(const std::string &config, const LoopNest &nest,
               tune::JitEvaluator &jit)
{
    int64_t nodes = nest.tripCount();
    size_t reads = nest.statements()[0].reads.size();
    double gb = static_cast<double>(nodes) *
                static_cast<double>(reads + 1) * 8.0 / 1e9;

    tune::NativeMeasurement m = jit.measureNative(nest);
    std::string uxj =
        std::to_string(m.unroll) + "x" + std::to_string(m.jam);
    auto interp = static_cast<double>(m.interp_ns);
    auto lex = static_cast<double>(m.lex_ns);
    auto rtile = static_cast<double>(m.rtile_ns);
    std::printf("%-18s %10lld %8.4f %9s %6s %12.0f %12.0f %12.0f "
                "%8.2f %8.2f %8.2f\n",
                config.c_str(), static_cast<long long>(nodes), gb,
                m.storage == GenStorage::OvMapped ? "ov" : "expanded",
                uxj.c_str(), interp, lex, rtile, interp / lex,
                interp / rtile, gb * 1e9 / rtile);
}

int
runNativeTable()
{
    if (!JitCompiler::hostCompilerAvailable()) {
        std::fprintf(stderr,
                     "bench_native_kernels: no host C compiler (set "
                     "UOV_CC or put cc/gcc/clang on PATH); skipping "
                     "--native-table\n");
        return 0;
    }
    tune::JitEvaluator jit;

    struct Config
    {
        std::string name;
        LoopNest nest;
    };
    std::vector<Config> configs;
    configs.push_back(
        Config{"stencil5_64x512", nests::fivePointStencil(64, 512)});
    configs.push_back(Config{"stencil5_128x2048",
                             nests::fivePointStencil(128, 2048)});
    configs.push_back(Config{"heat3d_16x64", heatNest3d(16, 64)});
    configs.push_back(Config{"heat3d_32x96", heatNest3d(32, 96)});

    std::printf("# interpreter vs JIT-compiled kernels (bit-exact "
                "verified; interp_ns one run, kernels median of 5)\n");
    std::printf("# gb = nodes x (reads+1) x 8 bytes of node traffic; "
                "gb/s uses the register-tiled time\n");
    std::printf("%-18s %10s %8s %9s %6s %12s %12s %12s %8s %8s %8s\n",
                "config", "nodes", "gb", "storage", "UxJ",
                "interp_ns", "lex_ns", "rtile_ns", "lex_x",
                "rtile_x", "gb/s");
    for (const Config &c : configs)
        printNativeRow(c.name, c.nest, jit);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--native-table") == 0) {
            try {
                return runNativeTable();
            } catch (const UovError &e) {
                std::fprintf(stderr, "bench_native_kernels: %s\n",
                             e.what());
                return 1;
            }
        }
    }
    registerAll();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
