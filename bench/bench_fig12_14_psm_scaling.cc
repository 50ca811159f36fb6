/**
 * @file
 * Reproduces Figures 12-14: protein string matching cycles per
 * iteration over a problem-size sweep (problem size = n0*n1, square
 * strings), five code versions, three simulated testbeds.
 *
 * Expected shapes: the natural version's O(n0*n1) tables fall out of
 * cache (and, at the top of the sweep, out of the scaled memory)
 * first; OV-mapped and storage-optimized versions stay small.  On the
 * branch-heavy machines (Ultra2 / Alpha presets carry higher
 * mispredict costs) the branch term compresses the relative gap --
 * the paper's conjecture for why tiling did not help there.
 *
 * Execution pipeline: bench::runSweep (bench_common.h), as for
 * Figures 9-11.
 */

#include "bench_common.h"

#include "kernels/psm.h"

using namespace uov;

namespace {

PsmConfig
configFor(const MachineConfig &machine, int64_t n)
{
    PsmConfig cfg;
    cfg.n0 = cfg.n1 = n;
    // Tile for L1: a tile's D/E working set ~ L1.
    cfg.tile_i = cfg.tile_j =
        std::max<int64_t>(16, machine.l1.size_bytes / (4 * 8));
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseArgs(argc, argv);
    bench::banner("Figures 12-14 (protein string matching scaling, 3 "
                  "machines)");

    std::vector<int64_t> sides = {32, 100, 316, 1000, 2000};
    if (opt.quick)
        sides = {32, 100, 316};

    auto machines = bench::scalingMachines();
    bench::Sweep<PsmVariant, PsmConfig> sweep{
        .sizes = sides,
        .variants = allPsmVariants(),
        .name = psmVariantName,
        .tiled = psmVariantTiled,
        .config = configFor,
        .iterations =
            [](const PsmConfig &cfg) {
                return static_cast<double>(cfg.n0) *
                       static_cast<double>(cfg.n1);
            },
        .title =
            [](size_t mi, const MachineConfig &machine, const PsmConfig &) {
                return "Figure " + std::to_string(12 + mi) +
                       ": cycles/iteration on " + machine.name +
                       " (problem size = n0*n1)";
            },
        .size_header = "Problem Size",
        .size_label = [](int64_t n) { return formatCount(n * n); },
    };
    auto result =
        bench::runSweep(sweep, machines, opt, runPsm<StreamingSim>);

    // Shape check: at the largest size on the PentiumPro, OV-mapped
    // tiled beats natural (Figure 12's headline; the table tile equals
    // L1/32, the seed's check tile).
    size_t last = sides.size() - 1;
    double natural = result.perIteration(0, last, PsmVariant::Natural);
    double ov_tiled = result.perIteration(0, last, PsmVariant::OvTiled);
    std::cerr << "shape check @ size="
              << formatCount(sides[last] * sides[last]) << " on "
              << machines[0].name
              << ": natural=" << formatDouble(natural, 1)
              << " vs ov_tiled=" << formatDouble(ov_tiled, 1) << " -> "
              << (ov_tiled < natural ? "reproduced" : "NOT reproduced")
              << "\n";
    return 0;
}
