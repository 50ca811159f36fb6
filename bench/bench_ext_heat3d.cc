/**
 * @file
 * Extension experiment (beyond the paper's figures): the 3-D heat
 * stencil (t, x, y) through the same pipeline -- UOV (2,0,0), two
 * planes of storage, time-skewed 3-D tiling -- swept across plane
 * sizes on the three simulated testbeds.  The paper's 2-D story
 * (natural thrashes, OV-tiled stays flat, storage-optimized is
 * untilable) recurs one dimension up.
 *
 * Execution pipeline: bench::runSweep (bench_common.h), as for
 * Figures 9-11.
 */

#include "bench_common.h"

#include <cmath>

#include "kernels/heat3d.h"

using namespace uov;

namespace {

Heat3DConfig
configFor(const MachineConfig &machine, int64_t n)
{
    Heat3DConfig cfg;
    cfg.nx = cfg.ny = n;
    cfg.steps = 8;
    cfg.tile_t = cfg.steps;
    // Tile for L1: two tile planes of tile_x*tile_y floats.
    auto side = static_cast<int64_t>(
        std::sqrt(machine.l1.size_bytes / 8.0));
    cfg.tile_x = cfg.tile_y = std::max<int64_t>(8, side);
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseArgs(argc, argv);
    bench::banner("extension: 3-D heat stencil scaling (UOV "
                  "(2,0,0), two planes)");

    std::vector<int64_t> sides = {32, 64, 128, 256, 512};
    if (opt.quick)
        sides = {32, 64, 128};

    auto machines = bench::scalingMachines();
    bench::Sweep<Heat3DVariant, Heat3DConfig> sweep{
        .sizes = sides,
        .variants = allHeat3DVariants(),
        .name = heat3DVariantName,
        .tiled = heat3DVariantTiled,
        .config = configFor,
        .iterations =
            [](const Heat3DConfig &cfg) {
                return static_cast<double>(cfg.nx) *
                       static_cast<double>(cfg.ny) *
                       static_cast<double>(cfg.steps);
            },
        .title =
            [](size_t, const MachineConfig &machine,
               const Heat3DConfig &cfg) {
                return "heat3d cycles/iteration on " + machine.name +
                       " (T=" + std::to_string(cfg.steps) +
                       ", N=M swept)";
            },
        .size_header = "N=M",
        .size_label = [](int64_t n) { return formatCount(n); },
    };
    auto result =
        bench::runSweep(sweep, machines, opt, runHeat3D<StreamingSim>);

    // Shape check at the largest size on the PentiumPro (the table's
    // L1-derived tile side is 32 there, matching the seed's check).
    size_t last = sides.size() - 1;
    double natural = result.perIteration(0, last, Heat3DVariant::Natural);
    double ov_tiled = result.perIteration(0, last, Heat3DVariant::OvTiled);
    std::cerr << "shape check @ N=M=" << sides[last] << " on "
              << machines[0].name
              << ": natural=" << formatDouble(natural, 1)
              << " vs ov_tiled=" << formatDouble(ov_tiled, 1) << " -> "
              << (ov_tiled < natural ? "2-D story recurs in 3-D"
                                     : "NOT reproduced")
              << "\n";
    return 0;
}
