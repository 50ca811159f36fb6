#include "sim/tlb.h"

#include "support/error.h"

namespace uov {

Tlb::Tlb(int64_t entries, int64_t page_bytes) : _entries(entries)
{
    UOV_REQUIRE(entries >= 1, "TLB needs at least one entry");
    UOV_REQUIRE(page_bytes > 0 && (page_bytes & (page_bytes - 1)) == 0,
                "page size must be a power of two");
    _page_shift = 0;
    while ((int64_t{1} << _page_shift) < page_bytes)
        ++_page_shift;
}

bool
Tlb::access(uint64_t addr)
{
    uint64_t page = addr >> _page_shift;
    auto it = _where.find(page);
    if (it != _where.end()) {
        _order.splice(_order.begin(), _order, it->second);
        ++_hits;
        return true;
    }
    ++_misses;
    if (static_cast<int64_t>(_order.size()) >= _entries) {
        uint64_t victim = _order.back();
        _order.pop_back();
        _where.erase(victim);
    }
    _order.push_front(page);
    _where[page] = _order.begin();
    return false;
}

double
Tlb::missRate() const
{
    uint64_t total = _hits + _misses;
    return total == 0 ? 0.0
                      : static_cast<double>(_misses) /
                            static_cast<double>(total);
}

} // namespace uov
