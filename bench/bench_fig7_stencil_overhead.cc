/**
 * @file
 * Reproduces Figure 7: overhead of the 5-point stencil versions at
 * problem sizes that fit in L1 cache -- cycles per iteration on the
 * three simulated testbeds.  With the working set cache-resident, the
 * differences are pure indexing/copy overhead, and all versions land
 * close together (the paper's observation).
 */

#include "bench_common.h"

#include "kernels/stencil5.h"

using namespace uov;

namespace {

double
simCyclesPerIter(Stencil5Variant v, const Stencil5Config &cfg,
                 const MachineConfig &machine, int reps)
{
    MemorySystem ms(machine);
    SimMem mem{&ms};
    for (int r = 0; r < reps; ++r) {
        VirtualArena arena; // same addresses every rep: warm caches
        runStencil5(v, cfg, mem, arena);
    }
    double iters = static_cast<double>(cfg.length) *
                   static_cast<double>(cfg.steps) * reps;
    return ms.cycles() / iters;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseArgs(argc, argv);
    bench::banner("Figure 7 (5-point stencil overhead, in-cache "
                  "sizes)");

    // Natural storage (T+1)*L*4B = 8 KiB: fits every machine's L1.
    Stencil5Config cfg;
    cfg.length = 128;
    cfg.steps = 15;
    const int reps = opt.quick ? 4 : 16;

    const Stencil5Variant versions[] = {
        Stencil5Variant::StorageOptimized,
        Stencil5Variant::Natural,
        Stencil5Variant::OvInterleaved,
        Stencil5Variant::Ov,
    };

    Table t("Figure 7: cycles per iteration, L=" +
            std::to_string(cfg.length) + ", T=" +
            std::to_string(cfg.steps) + " (fits L1)");
    const std::vector<MachineConfig> machines = bench::paperMachines();
    std::vector<std::string> header = {"version"};
    for (const auto &m : machines)
        header.push_back(m.name);
    t.header(header);

    // Per machine, the fastest and slowest version's cycles/iter.
    std::vector<double> lo(machines.size(), 1e30), hi(machines.size(), 0);
    for (Stencil5Variant v : versions) {
        auto row = t.addRow();
        row.cell(stencil5VariantName(v));
        for (size_t m = 0; m < machines.size(); ++m) {
            double cpi = simCyclesPerIter(v, cfg, machines[m], reps);
            row.cell(cpi, 2);
            lo[m] = std::min(lo[m], cpi);
            hi[m] = std::max(hi[m], cpi);
        }
    }
    // Spread check: per machine, max/min across versions.
    double max_spread = 0;
    for (size_t m = 0; m < machines.size(); ++m)
        max_spread = std::max(max_spread, hi[m] / lo[m]);
    bench::emit(t, opt);

    std::cout << "paper's claim: with in-cache sizes the versions "
                 "perform similarly (negligible OV overhead).\n"
              << "max cross-version spread here: "
              << formatDouble(max_spread, 2) << "x\n";
    return 0;
}
