/**
 * @file
 * A set-associative, write-allocate LRU cache model.
 *
 * Part of the testbed substitute (see DESIGN.md): the paper measured
 * on a Pentium Pro, an Ultra 2 and an Alpha 21164; we replay each
 * kernel's exact address stream through configurable cache hierarchies
 * so the 1998 memory-system shapes are reproducible deterministically
 * on any host.
 */

#ifndef UOV_SIM_CACHE_H
#define UOV_SIM_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

namespace uov {

/** Geometry of one cache level. */
struct CacheConfig
{
    std::string name;
    int64_t size_bytes = 0;
    int64_t line_bytes = 0;
    int64_t associativity = 0;

    int64_t sets() const;
    void validate() const;
};

/** One cache level with LRU replacement. */
class Cache
{
  public:
    explicit Cache(CacheConfig config);

    const CacheConfig &config() const { return _config; }

    /**
     * Access the line containing @p addr; true on hit.  Write hits
     * and fills mark the line dirty (write-allocate, write-back);
     * evicting a dirty line counts a writeback.
     */
    bool access(uint64_t addr, bool is_write = false);

    uint64_t hits() const { return _hits; }
    uint64_t misses() const { return _misses; }
    uint64_t accesses() const { return _hits + _misses; }
    uint64_t writebacks() const { return _writebacks; }
    double missRate() const;

  private:
    CacheConfig _config;
    int64_t _sets;
    int64_t _assoc;
    uint64_t _set_mask;
    unsigned _line_shift;
    unsigned _set_shift;

    struct Way
    {
        uint64_t tag = 0;
        uint64_t lru = 0; ///< last-use stamp
        bool valid = false;
        bool dirty = false;
    };
    std::vector<Way> _ways; ///< sets x associativity, row-major

    uint64_t _stamp = 0;
    uint64_t _hits = 0;
    uint64_t _misses = 0;
    uint64_t _writebacks = 0;
};

} // namespace uov

#endif // UOV_SIM_CACHE_H
