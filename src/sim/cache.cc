#include "sim/cache.h"

#include <bit>

#include "support/error.h"

namespace uov {

namespace {

bool
isPowerOfTwo(int64_t v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

unsigned
log2OfPow2(int64_t v)
{
    return static_cast<unsigned>(
        std::countr_zero(static_cast<uint64_t>(v)));
}

} // namespace

int64_t
CacheConfig::sets() const
{
    return size_bytes / (line_bytes * associativity);
}

void
CacheConfig::validate() const
{
    UOV_REQUIRE(isPowerOfTwo(line_bytes), name << ": line size must be a "
                                                  "power of two");
    UOV_REQUIRE(associativity >= 1, name << ": associativity >= 1");
    UOV_REQUIRE(size_bytes % (line_bytes * associativity) == 0,
                name << ": size must be sets*ways*line");
    UOV_REQUIRE(isPowerOfTwo(sets()), name << ": set count must be a "
                                              "power of two");
}

Cache::Cache(CacheConfig config) : _config(std::move(config))
{
    _config.validate();
    _sets = _config.sets();
    _assoc = _config.associativity;
    _set_mask = static_cast<uint64_t>(_sets - 1);
    _line_shift = log2OfPow2(_config.line_bytes);
    _set_shift = log2OfPow2(_sets);
    _ways.assign(static_cast<size_t>(_sets * _assoc), Way{});
}

bool
Cache::access(uint64_t addr, bool is_write)
{
    uint64_t line = addr >> _line_shift;
    auto set = static_cast<size_t>(line & _set_mask);
    uint64_t tag = line >> _set_shift;

    Way *base = &_ways[set * static_cast<size_t>(_assoc)];
    ++_stamp;

    // One pass finds both a hit and the fill/eviction victim.  The
    // victim scan is a branchless running minimum over lru stamps:
    // stamps start at 1 and are only written on hit/fill, so invalid
    // ways keep lru == 0 and the first invalid way wins exactly as a
    // dedicated fill-an-invalid-way scan would.
    Way *victim = base;
    uint64_t victim_lru = base->lru;
    for (int64_t w = 0; w < _assoc; ++w) {
        Way &way = base[w];
        if (way.valid && way.tag == tag) {
            way.lru = _stamp;
            way.dirty = way.dirty || is_write;
            ++_hits;
            return true;
        }
        bool older = way.lru < victim_lru;
        victim = older ? &way : victim;
        victim_lru = older ? way.lru : victim_lru;
    }

    if (victim->valid && victim->dirty)
        ++_writebacks;
    victim->valid = true;
    victim->tag = tag;
    victim->lru = _stamp;
    victim->dirty = is_write;
    ++_misses;
    return false;
}

double
Cache::missRate() const
{
    uint64_t total = accesses();
    return total == 0 ? 0.0
                      : static_cast<double>(_misses) /
                            static_cast<double>(total);
}

} // namespace uov
