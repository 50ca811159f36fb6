/**
 * @file
 * Reproduces Figures 9-11: 5-point stencil cycles per iteration over
 * a length sweep, all seven code versions, on the three simulated
 * testbeds.
 *
 * Testbed substitution notes (DESIGN.md): physical memory is set to
 * 8 / 16 / 32 MiB (PPro / Ultra2 / Alpha) so that the paper's
 * "falls out of memory" regime -- natural first, OV-mapped much
 * later, storage-optimized last -- appears inside a sweep that
 * simulates in seconds.  Tiled variants tile for L1 (two rows of
 * tile_s floats ~ L1 size).  The expected shape:
 *   - in-cache sizes: all versions close;
 *   - past L2: untiled versions pay memory latency, OV-tiled stays
 *     low;
 *   - past memory: natural skyrockets first, then OV-untiled; the
 *     storage-optimized and tiled-OV versions survive longest.
 *
 * Execution pipeline: bench::runSweep (bench_common.h) streams each
 * sweep point into every machine that observes the same address
 * stream, as tasks on the shared thread pool.
 */

#include "bench_common.h"

#include "kernels/stencil5.h"

using namespace uov;

namespace {

Stencil5Config
configFor(const MachineConfig &machine, int64_t len)
{
    Stencil5Config cfg;
    cfg.length = len;
    cfg.steps = 8;
    cfg.tile_t = cfg.steps;
    // Tile for L1: 2 rows of tile_s floats ~ L1 capacity.
    cfg.tile_s = std::max<int64_t>(64, machine.l1.size_bytes / (4 * 2));
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseArgs(argc, argv);
    bench::banner("Figures 9-11 (5-point stencil scaling across "
                  "lengths, 3 machines)");

    std::vector<int64_t> lengths = {1000, 10000, 100000, 300000,
                                    1000000, 2000000};
    if (opt.quick)
        lengths = {1000, 10000, 100000};

    auto machines = bench::scalingMachines();
    bench::Sweep<Stencil5Variant, Stencil5Config> sweep{
        .sizes = lengths,
        .variants = allStencil5Variants(),
        .name = stencil5VariantName,
        .tiled = stencil5VariantTiled,
        .config = configFor,
        .iterations =
            [](const Stencil5Config &cfg) {
                return static_cast<double>(cfg.length) *
                       static_cast<double>(cfg.steps);
            },
        .title =
            [](size_t mi, const MachineConfig &machine,
               const Stencil5Config &cfg) {
                return "Figure " + std::to_string(9 + mi) +
                       ": cycles/iteration on " + machine.name +
                       " (T=" + std::to_string(cfg.steps) +
                       ", memory " +
                       std::to_string(machine.memory_bytes >> 20) +
                       " MiB)";
            },
        .size_header = "Length",
        .size_label = [](int64_t len) { return formatCount(len); },
    };
    auto result =
        bench::runSweep(sweep, machines, opt, runStencil5<StreamingSim>);

    // Shape assertions matching the paper's story at the largest size
    // (tile_s there equals L1/8 floats, the same tile the table rows
    // use).
    size_t last = lengths.size() - 1;
    double natural =
        result.perIteration(0, last, Stencil5Variant::Natural);
    double ov_tiled =
        result.perIteration(0, last, Stencil5Variant::OvTiled);
    double opt_v =
        result.perIteration(0, last, Stencil5Variant::StorageOptimized);
    std::cerr << "shape check @ L=" << formatCount(lengths[last])
              << " on " << machines[0].name
              << ": natural=" << formatDouble(natural, 1)
              << " >> ov_tiled=" << formatDouble(ov_tiled, 1)
              << " ~ storage_optimized=" << formatDouble(opt_v, 1)
              << " -> "
              << (natural > 2 * ov_tiled ? "reproduced" : "NOT reproduced")
              << "\n";
    return 0;
}
