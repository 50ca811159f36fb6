/**
 * @file
 * A fully associative LRU page-translation buffer.  Also reused as the
 * resident-set model for finite physical memory (pages instead of
 * translations; a miss is then a page fault).
 */

#ifndef UOV_SIM_TLB_H
#define UOV_SIM_TLB_H

#include <cstdint>
#include <list>
#include <unordered_map>

namespace uov {

/** Fully associative LRU map over page numbers. */
class Tlb
{
  public:
    /**
     * @param entries capacity in pages
     * @param page_bytes page size (power of two)
     */
    Tlb(int64_t entries, int64_t page_bytes);

    /** Touch the page containing @p addr; true on hit. */
    bool access(uint64_t addr);

    /** True iff every entry is occupied (next miss evicts). */
    bool
    full() const
    {
        return static_cast<int64_t>(_order.size()) >= _entries;
    }

    uint64_t hits() const { return _hits; }
    uint64_t misses() const { return _misses; }
    double missRate() const;

  private:
    int64_t _entries;
    unsigned _page_shift;

    // LRU: list of page numbers, most recent at front, plus an index.
    std::list<uint64_t> _order;
    std::unordered_map<uint64_t, std::list<uint64_t>::iterator> _where;

    uint64_t _hits = 0;
    uint64_t _misses = 0;
};

} // namespace uov

#endif // UOV_SIM_TLB_H
