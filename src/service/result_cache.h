/**
 * @file
 * A sharded, mutex-striped LRU cache of certified query answers.
 *
 * UOV search is the NP-complete hot path; a production service
 * survives traffic by never solving the same canonical query twice.
 * Keys hash onto 2^k independent shards, each a classic
 * (mutex, intrusive LRU list, hash index) triple, so concurrent
 * lookups contend only when they collide on a shard -- the standard
 * stripe design.  The byte budget is split evenly across shards and
 * enforced per shard on insert (evict from the cold end until the
 * new entry fits).
 *
 * Counters (hits, misses, evictions) are tallied per shard under the
 * shard mutex and mirrored into an optional MetricsRegistry, giving
 * the reconciliation invariant the replay test asserts:
 * hits + misses == lookups == requests that reached the cache.
 */

#ifndef UOV_SERVICE_RESULT_CACHE_H
#define UOV_SERVICE_RESULT_CACHE_H

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "service/answer.h"
#include "service/canonical.h"
#include "support/metrics.h"

namespace uov {
namespace service {

class ResultCache
{
  public:
    struct Stats
    {
        uint64_t lookups = 0;
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t insertions = 0;
        uint64_t evictions = 0;
        uint64_t entries = 0;
        uint64_t bytes = 0;
    };

    /**
     * @param max_bytes total budget across all shards (0 disables
     *        storage: every lookup misses, inserts are dropped)
     * @param shards requested stripe count, rounded up to a power of
     *        two and clamped to [1, 256]
     * @param metrics optional registry mirror (service.cache.*)
     */
    explicit ResultCache(size_t max_bytes, size_t shards = 16,
                         MetricsRegistry *metrics = nullptr);

    /** Copy out the answer and refresh its recency, if present. */
    std::optional<ServiceAnswer> lookup(const CanonicalKey &key);

    /**
     * Insert (or refresh) an answer, evicting cold entries of the
     * same shard until it fits.  An entry larger than a whole shard
     * budget is dropped (never cached).
     */
    void insert(const CanonicalKey &key, const ServiceAnswer &answer);

    /** Aggregate counters over all shards (racy-read consistent). */
    Stats stats() const;

    size_t shardCount() const { return _shards.size(); }
    size_t maxBytes() const { return _per_shard_bytes * _shards.size(); }

  private:
    struct Entry
    {
        CanonicalKey key;
        ServiceAnswer answer;
        size_t bytes = 0;
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::list<Entry> lru; ///< front = hottest
        std::unordered_map<CanonicalKey, std::list<Entry>::iterator,
                           CanonicalKeyHash>
            index;
        size_t bytes = 0;
        uint64_t lookups = 0;
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t insertions = 0;
        uint64_t evictions = 0;
    };

    Shard &shardOf(const CanonicalKey &key);

    size_t _per_shard_bytes;
    std::vector<std::unique_ptr<Shard>> _shards;
    Counter *_hits = nullptr;
    Counter *_misses = nullptr;
    Counter *_evictions = nullptr;
    Gauge *_bytes_gauge = nullptr;
};

} // namespace service
} // namespace uov

#endif // UOV_SERVICE_RESULT_CACHE_H
