/**
 * @file
 * Extension experiment for the paper's Section 7 future work
 * ("multiple-level optimizations like hierarchical tiling"): one-level
 * L1 tiling vs two-level L1-in-L2 tiling of the OV-mapped 5-point
 * stencil, on the simulated machines.
 *
 * With only two rows of OV storage the inner-tile working set already
 * fits L1, so the second level matters most for the *natural* code
 * whose footprint spans L2 -- exactly the regime the hierarchy
 * targets.
 */

#include "bench_common.h"

#include "core/stencil.h"
#include "kernels/stencil5.h"
#include "schedule/executor.h"
#include "schedule/legality.h"

using namespace uov;

namespace {

/** cycles/iter for an arbitrary schedule replayed on a machine. */
double
simulateSchedule(const Schedule &sched, const Stencil &stencil,
                 const IVec &lo, const IVec &hi, int64_t cells_len,
                 const MachineConfig &machine)
{
    // Replay the schedule's access pattern through the memory system:
    // each visited point performs the stencil's loads on the 2-row OV
    // store plus one store.
    MemorySystem ms(machine);
    VirtualArena arena;
    SimBuffer<float> a(arena, static_cast<size_t>(2 * cells_len));
    SimMem mem{&ms};
    uint64_t iters = 0;
    sched.forEach(lo, hi, [&](const IVec &q) {
        ++iters;
        for (const auto &v : stencil.deps()) {
            IVec p = q - v;
            int64_t idx =
                (p[0] & 1) * cells_len +
                std::clamp<int64_t>(p[1], 0, cells_len - 1);
            (void)mem.load(a, static_cast<size_t>(idx));
        }
        int64_t widx = (q[0] & 1) * cells_len +
                       std::clamp<int64_t>(q[1], 0, cells_len - 1);
        mem.store(a, static_cast<size_t>(widx), 1.0f);
        mem.compute(3.0);
    });
    return ms.cycles() / static_cast<double>(iters);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseArgs(argc, argv);
    bench::banner("extension: hierarchical (two-level) tiling, "
                  "Section 7 future work");

    Stencil five = stencils::fivePoint();
    IMatrix skew = skewToNonNegative(five);

    // Length chosen so the 2-row OV store exceeds L2: the regime
    // where grouping time-tile rows inside an L2-sized window pays.
    const int64_t len = opt.quick ? 1 << 16 : 1 << 18;
    const int64_t steps = 24;
    const int64_t tile_t = 4; // several time-tile rows re-stream L
    IVec lo{1, 0}, hi{steps, len - 1};

    for (const auto &machine : bench::paperMachines()) {
        int64_t l1_tile =
            std::max<int64_t>(64, machine.l1.size_bytes / 8);
        // Outer s-window sized to L2; outer t covers all time rows.
        int64_t l2_factor = std::max<int64_t>(
            2, machine.l2.size_bytes / 8 / l1_tile);

        TiledSchedule one_level(skew, {{tile_t, l1_tile}}, "L1-tile");
        TiledSchedule two_level(
            skew,
            {{tile_t * (steps / tile_t), l1_tile * l2_factor},
             {tile_t, l1_tile}},
            "L1-in-L2");

        Table t("5-point stencil, OV storage, L=" + formatCount(len) +
                " on " + machine.name);
        t.header({"schedule", "cycles/iter"});
        t.addRow()
            .cell(one_level.name())
            .cell(simulateSchedule(one_level, five, lo, hi, len,
                                   machine),
                  2);
        t.addRow()
            .cell(two_level.name())
            .cell(simulateSchedule(two_level, five, lo, hi, len,
                                   machine),
                  2);
        t.addRow()
            .cell("untiled (lex)")
            .cell(simulateSchedule(TiledSchedule(IMatrix::identity(2)),
                                   five, lo, hi, len, machine),
                  2);
        bench::emit(t, opt);
    }
    return 0;
}
