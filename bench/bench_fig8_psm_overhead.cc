/**
 * @file
 * Reproduces Figure 8: protein-string-matching overhead at in-cache
 * sizes.  The paper observes OV-mapped code has less overhead than the
 * natural version, and the storage-optimized version the least.
 */

#include "bench_common.h"

#include "kernels/psm.h"

using namespace uov;

namespace {

double
simCyclesPerIter(PsmVariant v, const PsmConfig &cfg,
                 const MachineConfig &machine, int reps)
{
    MemorySystem ms(machine);
    SimMem mem{&ms};
    for (int r = 0; r < reps; ++r) {
        VirtualArena arena;
        runPsm(v, cfg, mem, arena);
    }
    double iters = static_cast<double>(cfg.n0) *
                   static_cast<double>(cfg.n1) * reps;
    return ms.cycles() / iters;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseArgs(argc, argv);
    bench::banner("Figure 8 (protein string matching overhead, "
                  "in-cache sizes)");

    PsmConfig cfg;
    cfg.n0 = cfg.n1 = 24; // natural D+E arrays = 5 KiB: fits L1
    const int reps = opt.quick ? 4 : 16;

    const PsmVariant versions[] = {
        PsmVariant::StorageOptimized,
        PsmVariant::Natural,
        PsmVariant::Ov,
    };

    Table t("Figure 8: cycles per iteration, n0=n1=" +
            std::to_string(cfg.n0) + " (fits L1)");
    const std::vector<MachineConfig> machines = bench::paperMachines();
    std::vector<std::string> header = {"version"};
    for (const auto &m : machines)
        header.push_back(m.name);
    t.header(header);

    // cpi[i][m]: versions[i] on machines[m].
    std::vector<std::vector<double>> cpi;
    for (PsmVariant v : versions) {
        auto row = t.addRow();
        row.cell(psmVariantName(v));
        cpi.emplace_back();
        for (const auto &machine : machines) {
            double c = simCyclesPerIter(v, cfg, machine, reps);
            cpi.back().push_back(c);
            row.cell(c, 2);
        }
    }
    bench::emit(t, opt);

    // Ordering check per machine: optimized <= ov <= natural.
    bool ordered = true;
    for (size_t m = 0; m < machines.size(); ++m) {
        double so = cpi[0][m], nat = cpi[1][m], ov = cpi[2][m];
        if (!(so <= ov * 1.02 && ov <= nat * 1.02))
            ordered = false;
    }
    std::cout << "paper's ordering (storage-optimized <= OV-mapped <= "
                 "natural): "
              << (ordered ? "reproduced" : "NOT reproduced") << "\n";
    return 0;
}
