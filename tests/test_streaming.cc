/**
 * @file
 * Regression tests for the fused record-and-replay pipeline: one
 * StreamingSim kernel pass must be bit-identical -- per-level hits,
 * misses, writebacks, page faults, and total cycles -- to recording a
 * trace and replaying it per machine, and to a dedicated SimMem run.
 * This is what licenses the scaling benches to drop trace
 * materialization: the 1998 "shape" results are unchanged, only
 * faster to regenerate.
 */

#include <gtest/gtest.h>

#include "kernels/psm.h"
#include "kernels/stencil5.h"
#include "sim/streaming.h"
#include "sim/trace.h"

namespace uov {
namespace {

std::vector<MachineConfig>
threeMachines()
{
    return {MachineConfig::pentiumPro(), MachineConfig::ultra2(),
            MachineConfig::alpha21164()};
}

/** Assert every observable statistic matches between two systems. */
void
expectIdenticalStats(const MemorySystem &a, const MemorySystem &b,
                     const std::string &label)
{
    EXPECT_EQ(a.accesses(), b.accesses()) << label;
    EXPECT_EQ(a.branches(), b.branches()) << label;
    EXPECT_EQ(a.pageFaults(), b.pageFaults()) << label;
    auto level = [&](const Cache *x, const Cache *y, const char *name) {
        ASSERT_EQ(x == nullptr, y == nullptr) << label << " " << name;
        if (!x)
            return;
        EXPECT_EQ(x->hits(), y->hits()) << label << " " << name;
        EXPECT_EQ(x->misses(), y->misses()) << label << " " << name;
        EXPECT_EQ(x->writebacks(), y->writebacks())
            << label << " " << name;
    };
    level(&a.l1(), &b.l1(), "L1");
    level(&a.l2(), &b.l2(), "L2");
    level(a.l3(), b.l3(), "L3");
    EXPECT_EQ(a.tlb().misses(), b.tlb().misses()) << label;
    // Bit-identical, not approximately equal: the fused pass and the
    // replay charge the same doubles in the same order.
    EXPECT_EQ(a.cycles(), b.cycles()) << label;
}

TEST(StreamingSim, FusedMatchesRecordThenReplayOnFigure7Workload)
{
    // The Figure 7 stencil workload: L=128, T=15 (fits L1), every
    // measured variant, all three machine configs at once.
    Stencil5Config cfg;
    cfg.length = 128;
    cfg.steps = 15;

    auto machines = threeMachines();
    for (Stencil5Variant v : allStencil5Variants()) {
        // Fused: one kernel pass streams into all three machines.
        MultiMachineSim fused(machines);
        double fused_result;
        {
            StreamingSim mem = fused.policy();
            VirtualArena arena;
            fused_result = runStencil5(v, cfg, mem, arena);
        }

        // Record once, replay per machine.
        Trace trace;
        double traced_result;
        {
            VirtualArena arena;
            TracingMem mem{&trace, 0};
            traced_result = runStencil5(v, cfg, mem, arena);
        }
        EXPECT_EQ(fused_result, traced_result)
            << stencil5VariantName(v);

        for (size_t m = 0; m < machines.size(); ++m) {
            MemorySystem replayed(machines[m]);
            trace.replay(replayed);
            expectIdenticalStats(
                fused.system(m), replayed,
                std::string(stencil5VariantName(v)) + " on " +
                    machines[m].name);
        }
    }
}

TEST(StreamingSim, FusedMatchesDedicatedSimMemRuns)
{
    // Same single-machine semantics as SimMem, for a branchy kernel
    // too (PSM exercises branch accounting through the fan-out).
    PsmConfig cfg;
    cfg.n0 = 48;
    cfg.n1 = 40;

    auto machines = threeMachines();
    MultiMachineSim fused(machines);
    {
        StreamingSim mem = fused.policy();
        VirtualArena arena;
        runPsm(PsmVariant::Ov, cfg, mem, arena);
    }
    for (size_t m = 0; m < machines.size(); ++m) {
        MemorySystem direct(machines[m]);
        {
            SimMem mem{&direct};
            VirtualArena arena;
            runPsm(PsmVariant::Ov, cfg, mem, arena);
        }
        expectIdenticalStats(fused.system(m), direct,
                             machines[m].name);
    }
}

TEST(MultiMachineSim, OwnsSystemsAndCountsEvents)
{
    MultiMachineSim sim(threeMachines());
    ASSERT_EQ(sim.size(), 3u);
    StreamingSim mem = sim.policy();
    ASSERT_EQ(mem.systems.size(), 3u);

    VirtualArena arena;
    SimBuffer<float> buf(arena, 64, 1.0f);
    float x = mem.load(buf, 0);
    mem.store(buf, 1, x + 1.0f);
    mem.branch();
    for (size_t m = 0; m < sim.size(); ++m) {
        EXPECT_EQ(sim.system(m).accesses(), 2u);
        EXPECT_EQ(sim.system(m).branches(), 1u);
    }
    // 3 events fanned out to 3 machines.
    EXPECT_EQ(sim.eventsProcessed(), 9u);
    EXPECT_EQ(buf[1], 2.0f);

    EXPECT_THROW(sim.system(3), UovUserError);
    EXPECT_THROW(MultiMachineSim({}), UovUserError);
}

} // namespace
} // namespace uov
