#include "sim/machine.h"

#include "support/error.h"

namespace uov {

MachineConfig
MachineConfig::pentiumPro()
{
    MachineConfig m;
    m.name = "PentiumPro-200";
    m.l1 = {"L1D", 8 << 10, 32, 2};
    m.l2 = {"L2", 256 << 10, 32, 4};
    m.tlb_entries = 64;
    m.memory_bytes = 32ll << 20;
    m.base_cycles_per_op = 1.0;
    m.l2_hit_cycles = 6.0;
    m.memory_cycles = 50.0;
    m.tlb_miss_cycles = 25.0;
    m.page_fault_cycles = 200000.0;
    m.branch_cycles = 1.0;
    m.branch_mispredict_cycles = 4.0;
    m.branch_mispredict_rate = 0.08; // strong P6 predictor
    return m;
}

MachineConfig
MachineConfig::ultra2()
{
    MachineConfig m;
    m.name = "Ultra2-200";
    m.l1 = {"L1D", 16 << 10, 32, 1};
    m.l2 = {"L2", 1 << 20, 64, 1};
    m.tlb_entries = 64;
    m.memory_bytes = 128ll << 20;
    m.base_cycles_per_op = 1.0;
    m.l2_hit_cycles = 8.0;
    m.memory_cycles = 45.0;
    m.tlb_miss_cycles = 30.0;
    m.page_fault_cycles = 200000.0;
    m.branch_cycles = 1.0;
    m.branch_mispredict_cycles = 6.0;
    m.branch_mispredict_rate = 0.18; // static prediction hurts PSM
    return m;
}

MachineConfig
MachineConfig::alpha21164()
{
    MachineConfig m;
    m.name = "Alpha21164-500";
    m.l1 = {"L1D", 8 << 10, 32, 1};
    m.l2 = {"L2", 96 << 10, 64, 3};
    m.l3 = CacheConfig{"L3", 2 << 20, 64, 1};
    m.tlb_entries = 64;
    m.memory_bytes = 256ll << 20;
    m.base_cycles_per_op = 0.7; // 4-issue core
    m.l2_hit_cycles = 8.0;
    m.l3_hit_cycles = 25.0;
    m.memory_cycles = 90.0; // 500 MHz core, same DRAM latency
    m.tlb_miss_cycles = 40.0;
    m.page_fault_cycles = 400000.0;
    m.branch_cycles = 1.0;
    m.branch_mispredict_cycles = 5.0;
    m.branch_mispredict_rate = 0.16; // in-order, shallow predictor
    return m;
}

MemorySystem::MemorySystem(MachineConfig config)
    : _config(std::move(config)), _l1(_config.l1), _l2(_config.l2),
      _tlb(_config.tlb_entries, _config.page_bytes),
      _resident(_config.memory_bytes / _config.page_bytes,
                _config.page_bytes)
{
    UOV_REQUIRE(_config.memory_bytes >= _config.page_bytes,
                "machine must have at least one page of memory");
    if (_config.l3)
        _l3.emplace(*_config.l3);
}

void
MemorySystem::access(uint64_t addr, bool is_write)
{
    ++_accesses;
    _cycles += _config.base_cycles_per_op;

    uint64_t wb_before = _l1.writebacks();
    if (_l1.access(addr, is_write)) {
        _cycles += _config.l1_hit_cycles;
        return;
    }
    // A dirty victim drains toward L2 (write-back, write-allocate).
    if (_l1.writebacks() != wb_before)
        _cycles += _config.writeback_cycles;
    // Translation modeled on the L1-miss path only (an L1 hit implies
    // a recently used -- hence translated -- page).
    if (!_tlb.access(addr))
        _cycles += _config.tlb_miss_cycles;
    if (_l2.access(addr)) {
        _cycles += _config.l2_hit_cycles;
        return;
    }
    if (_l3) {
        if (_l3->access(addr)) {
            _cycles += _config.l3_hit_cycles;
            return;
        }
    }
    // Off-chip.  A next-line prefetcher hides most of the latency for
    // accesses that continue a recent miss stream.  Streams are
    // detected at the granularity of the last on-chip level's lines
    // (that is what actually misses to memory).
    int64_t stream_line = _config.l3 ? _config.l3->line_bytes
                                     : _config.l2.line_bytes;
    uint64_t line = addr / static_cast<uint64_t>(stream_line);
    bool prefetched = false;
    if (_config.next_line_prefetch) {
        for (uint64_t prev : _recent_miss_lines) {
            if (prev != 0 && prev + 1 == line) {
                prefetched = true;
                break;
            }
        }
    }
    _recent_miss_lines[_recent_next] = line;
    _recent_next = (_recent_next + 1) % kStreamTableSize;
    if (prefetched) {
        ++_prefetch_hits;
        _cycles += _config.l2_hit_cycles;
    } else {
        _cycles += _config.memory_cycles;
    }
    // Off-chip: is the page resident?  (Resident-set tracking on the
    // miss path only -- cache hits imply residency.)  A fault with
    // free frames is a minor fault (allocate + zero); once physical
    // memory is full every fault evicts -- with these streaming
    // kernels a dirty page -- and pays the disk penalty.  That is the
    // paper's "falls out of memory" regime.
    bool was_full = _resident.full();
    if (!_resident.access(addr)) {
        if (was_full) {
            _cycles += _config.page_fault_cycles;
            ++_page_faults;
        } else {
            _cycles += _config.minor_fault_cycles;
        }
    }
}

void
MemorySystem::branch()
{
    ++_branches;
    _cycles += _config.branch_cycles +
               _config.branch_mispredict_rate *
                   _config.branch_mispredict_cycles;
}

} // namespace uov
