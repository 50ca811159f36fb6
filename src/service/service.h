/**
 * @file
 * The concurrent UOV query service: canonicalize, consult the sharded
 * result cache, deduplicate in-flight identical queries
 * (single-flight), and fall through to the branch-and-bound solver.
 *
 * QueryService::query is safe to call from any number of threads; the
 * service itself owns no threads (the batch executor supplies
 * concurrency by fanning requests onto a ThreadPool).  Single-flight:
 * the first thread to miss on a canonical key computes it inline
 * while later threads with the same key block on that flight and
 * receive the identical answer object -- an NP-complete search is
 * never duplicated by a traffic burst.  The owner is always actively
 * running on some thread (flights are created by the thread that
 * computes), so waiters cannot deadlock against a queued task.
 *
 * Metric reconciliation invariant (asserted by tests): with the cache
 * enabled, every query performs exactly one cache lookup, so
 * service.cache.hits + service.cache.misses == service.requests.
 */

#ifndef UOV_SERVICE_SERVICE_H
#define UOV_SERVICE_SERVICE_H

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "service/answer.h"
#include "service/canonical.h"
#include "service/result_cache.h"
#include "service/store.h"
#include "support/metrics.h"

namespace uov {
namespace service {

/** The registry type callers name through this namespace. */
using uov::MetricsRegistry;

/** Service configuration. */
struct ServiceOptions
{
    /** Result-cache byte budget; 0 disables caching entirely. */
    size_t cache_bytes = 64ull << 20;
    /** Cache stripe count (rounded up to a power of two). */
    size_t cache_shards = 16;
    /** Branch-and-bound node budget per query (anytime answers). */
    uint64_t max_visits = 10'000'000;
    /**
     * Persistent result-store path; empty disables durability.  When
     * set, the store is opened (torn tails truncated), preloaded into
     * the cache, consulted on every cache miss, and appended to after
     * every search -- a restarted daemon answers its corpus from disk
     * with zero searches.  An unopenable store degrades to storeless
     * operation with a warning (counter service.store.open_errors);
     * it never takes the service down.
     */
    std::string store_path;
};

class QueryService
{
  public:
    /** @p metrics must outlive the service. */
    QueryService(ServiceOptions options, MetricsRegistry &metrics);

    /**
     * Answer one query.  Deterministic for deadline_ms in {-1, 0}:
     * the result equals solveDirect(stencil, objective, bounds,
     * budget) regardless of cache state or concurrent callers (a
     * positive wall-clock deadline makes the degradation point
     * inherently timing-dependent, so only the safety contract --
     * certified UOV no worse than ov_o -- holds there).  Thread-safe.
     *
     * @param deadline_ms wall-clock budget for this request;
     *        -1 = unbounded, 0 = degrade immediately to ov_o.
     *
     * @throws UovUserError on invalid input (e.g. missing bounds for
     *         the storage objective); never corrupts service state.
     */
    ServiceAnswer query(const Stencil &stencil,
                        SearchObjective objective,
                        const std::optional<IVec> &isg_lo,
                        const std::optional<IVec> &isg_hi,
                        int64_t deadline_ms = -1);

    /** Number of branch-and-bound searches actually executed. */
    uint64_t searchesExecuted() const;

    ResultCache::Stats cacheStats() const { return _cache.stats(); }
    MetricsRegistry &metrics() { return _metrics; }
    const ServiceOptions &options() const { return _options; }
    /** Null when no store was configured or it failed to open. */
    const ResultStore *store() const { return _store.get(); }

  private:
    /** One in-flight computation; waiters block on cv until done. */
    struct Flight
    {
        std::mutex mutex;
        std::condition_variable cv;
        bool done = false;
        ServiceAnswer answer;
        std::exception_ptr error;
    };

    ServiceOptions _options;
    MetricsRegistry &_metrics;
    ResultCache _cache;
    std::unique_ptr<ResultStore> _store;

    std::mutex _flights_mutex;
    std::unordered_map<CanonicalKey, std::shared_ptr<Flight>,
                       CanonicalKeyHash>
        _flights;

    Counter &_requests;
    Counter &_searches;
    Counter &_coalesced;
    Counter &_canon_removed;
    Counter &_timeouts;
};

} // namespace service
} // namespace uov

#endif // UOV_SERVICE_SERVICE_H
