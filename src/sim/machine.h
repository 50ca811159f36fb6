/**
 * @file
 * Machine models: the memory hierarchy + cycle accounting standing in
 * for the paper's three testbeds (Section 5: 200 MHz Pentium Pro,
 * 200 MHz Ultra 2, 500 MHz Alpha 21164, all gcc -O2).
 *
 * A MemorySystem replays an address stream through L1/L2(/L3) caches,
 * a TLB, and a finite physical memory with page-LRU replacement (the
 * paper's "falls out of memory" regime), and charges cycles:
 *
 *   cycles += base_per_op
 *           + first-missing-level penalty
 *           + TLB-miss penalty
 *           + page-fault penalty (when the resident set overflows)
 *
 * plus a deterministic expected-cost model for branches.  Parameters
 * follow the published cache geometries of the three machines; the
 * penalties are era-plausible round numbers.  Absolute cycle counts
 * are not the claim -- the paper-vs-us comparison is about curve
 * shapes (see EXPERIMENTS.md).
 */

#ifndef UOV_SIM_MACHINE_H
#define UOV_SIM_MACHINE_H

#include <optional>
#include <string>

#include "sim/cache.h"
#include "sim/tlb.h"

namespace uov {

/** Full parameterization of one simulated machine. */
struct MachineConfig
{
    std::string name;

    CacheConfig l1;
    CacheConfig l2;
    std::optional<CacheConfig> l3;

    int64_t tlb_entries = 64;
    int64_t page_bytes = 4096;

    int64_t memory_bytes = 32ll << 20; ///< physical memory capacity

    double base_cycles_per_op = 1.0; ///< issue cost of a memory op
    double l1_hit_cycles = 0.0;      ///< extra cost beyond base
    double l2_hit_cycles = 6.0;
    double l3_hit_cycles = 20.0;
    double memory_cycles = 50.0;
    double tlb_miss_cycles = 20.0;
    /** Cost of writing a dirty L1 victim back toward L2. */
    double writeback_cycles = 2.0;
    /** First touch of a page with free memory: allocation/zeroing. */
    double minor_fault_cycles = 1500.0;
    /** Fault with memory full: a dirty page goes to disk first. */
    double page_fault_cycles = 200000.0;

    double branch_cycles = 1.0;            ///< predicted-branch cost
    double branch_mispredict_cycles = 4.0;
    double branch_mispredict_rate = 0.10;  ///< expected-cost model

    /**
     * Next-line hardware prefetcher (Section 5 discusses whether
     * interleaved OV storage defeats prefetching): when an off-chip
     * access continues a recently missed line stream, it is served at
     * the L2 latency instead of full memory latency.  Off by default;
     * the mapping ablation flips it.
     */
    bool next_line_prefetch = false;

    /** The three paper testbeds. */
    static MachineConfig pentiumPro();
    static MachineConfig ultra2();
    static MachineConfig alpha21164();
};

/** Replay engine: feed it loads/stores/branches, read back cycles. */
class MemorySystem
{
  public:
    explicit MemorySystem(MachineConfig config);

    const MachineConfig &config() const { return _config; }

    /** One data access at byte address @p addr. */
    void access(uint64_t addr, bool is_write);

    /** One conditional branch (expected-cost accounting). */
    void branch();

    /** Pure compute cycles (arithmetic between memory ops). */
    void compute(double cycles) { _cycles += cycles; }

    double cycles() const { return _cycles; }
    uint64_t accesses() const { return _accesses; }
    uint64_t branches() const { return _branches; }
    uint64_t pageFaults() const { return _page_faults; }
    const Cache &l1() const { return _l1; }
    const Cache &l2() const { return _l2; }
    const Cache *l3() const { return _l3 ? &*_l3 : nullptr; }
    const Tlb &tlb() const { return _tlb; }

  private:
    MachineConfig _config;
    Cache _l1;
    Cache _l2;
    std::optional<Cache> _l3;
    Tlb _tlb;
    Tlb _resident; ///< physical memory modeled as a page-LRU "cache"

    double _cycles = 0.0;
    uint64_t _accesses = 0;
    uint64_t _branches = 0;
    uint64_t _page_faults = 0;
    uint64_t _prefetch_hits = 0;

    /** Recently missed line addresses (stream detector). */
    static constexpr size_t kStreamTableSize = 16;
    uint64_t _recent_miss_lines[kStreamTableSize] = {};
    size_t _recent_next = 0;

  public:
    uint64_t prefetchHits() const { return _prefetch_hits; }
};

} // namespace uov

#endif // UOV_SIM_MACHINE_H
