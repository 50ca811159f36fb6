/**
 * @file
 * Fused record-and-replay: stream one kernel pass into N machines.
 *
 * The scaling figures replay the same address stream through three
 * machine models.  Recording a trace and replaying it three times
 * materializes gigabytes for the 1e7-point sweeps; running the kernel
 * once per machine triples the kernel work.  StreamingSim is the
 * middle path: a memory policy that forwards every load, store,
 * branch, and compute hint directly into all attached MemorySystems
 * during a single kernel pass.  No trace is ever materialized, so
 * peak memory is the kernel's own working set -- independent of trace
 * length -- and each machine observes exactly the stream a dedicated
 * SimMem run would, so per-level statistics and cycle counts are
 * bit-identical to record-then-replay (a regression test asserts
 * this; the record/replay path stays for diffing and tests).
 */

#ifndef UOV_SIM_STREAMING_H
#define UOV_SIM_STREAMING_H

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/machine.h"
#include "sim/memory_policy.h"

namespace uov {

/**
 * Memory policy fanning each event out to N memory systems.  Holds
 * non-owning pointers; see MultiMachineSim for the owning wrapper.
 */
struct StreamingSim
{
    std::vector<MemorySystem *> systems;

    template <typename T>
    inline T
    load(const SimBuffer<T> &b, size_t i)
    {
        uint64_t a = b.addr(i);
        for (MemorySystem *ms : systems)
            ms->access(a, false);
        return b.data()[i];
    }

    template <typename T>
    inline void
    store(SimBuffer<T> &b, size_t i, T v)
    {
        uint64_t a = b.addr(i);
        for (MemorySystem *ms : systems)
            ms->access(a, true);
        b.data()[i] = v;
    }

    inline void
    branch()
    {
        for (MemorySystem *ms : systems)
            ms->branch();
    }

    inline void
    compute(double c)
    {
        for (MemorySystem *ms : systems)
            ms->compute(c);
    }
};

/**
 * Owns one MemorySystem per machine config and hands out the fused
 * policy over all of them.  Addresses stay stable for the wrapper's
 * lifetime, so the policy may be copied freely into kernel calls.
 */
class MultiMachineSim
{
  public:
    explicit MultiMachineSim(const std::vector<MachineConfig> &configs);

    size_t size() const { return _systems.size(); }
    MemorySystem &system(size_t i);

    /** The fused policy feeding every owned system. */
    StreamingSim policy();

    /** Total events (accesses + branches) absorbed across systems. */
    uint64_t eventsProcessed() const;

    /**
     * Emit one "sim.machine.cycles" trace counter sample per owned
     * machine (series keys m0, m1, ...), so a traced sweep shows each
     * model's cycle total advancing chunk by chunk.  No-op while
     * tracing is disabled; machines past the eighth are not sampled
     * (counter keys must be static strings).
     */
    void traceCycleCounters() const;

  private:
    std::vector<std::unique_ptr<MemorySystem>> _systems;
};

} // namespace uov

#endif // UOV_SIM_STREAMING_H
