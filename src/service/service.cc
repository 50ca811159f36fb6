#include "service/service.h"

#include <utility>

#include "support/failpoint.h"
#include "support/logging.h"
#include "support/trace.h"
#include "telemetry/trace_context.h"

namespace uov {
namespace service {

QueryService::QueryService(ServiceOptions options,
                           MetricsRegistry &metrics)
    : _options(options), _metrics(metrics),
      _cache(options.cache_bytes, options.cache_shards, &metrics),
      _requests(metrics.counter("service.requests")),
      _searches(metrics.counter("service.searches")),
      _coalesced(metrics.counter("service.singleflight.coalesced")),
      _canon_removed(metrics.counter("service.canon.removed_deps")),
      _timeouts(metrics.counter("service.timeouts"))
{
    if (_options.store_path.empty())
        return;
    // An unopenable store degrades to storeless operation: durability
    // is an amenity, availability is the contract.
    try {
        _store = std::make_unique<ResultStore>(_options.store_path,
                                               &metrics);
    } catch (const UovError &e) {
        UOV_LOG_WARN("service: store '" << _options.store_path
                     << "' unusable, running storeless: " << e.what());
        _metrics.counter("service.store.open_errors").inc();
        return;
    }
    if (_options.cache_bytes > 0) {
        size_t n = _store->preload(_cache);
        _metrics.counter("service.store.preloaded").inc(n);
    }
}

ServiceAnswer
QueryService::query(const Stencil &stencil, SearchObjective objective,
                    const std::optional<IVec> &isg_lo,
                    const std::optional<IVec> &isg_hi,
                    int64_t deadline_ms)
{
    _requests.inc();

    Stencil canonical = [&] {
        trace::Span span("service.canonicalize");
        span.arg("deps", static_cast<int64_t>(stencil.size()));
        return canonicalizeStencil(stencil);
    }();
    if (canonical.size() < stencil.size())
        _canon_removed.inc(stencil.size() - canonical.size());
    CanonicalKey key =
        makeKey(canonical, objective, isg_lo, isg_hi, deadline_ms);
    telemetry::noteKeyHash(key.hash());

    bool use_cache = _options.cache_bytes > 0;
    if (use_cache) {
        trace::Span span("service.cache.lookup");
        auto cached = _cache.lookup(key);
        span.arg("hit", static_cast<int64_t>(cached ? 1 : 0));
        if (cached) {
            telemetry::noteCacheHit();
            return std::move(*cached);
        }
    }

    // Disk store: a persisted answer short-circuits the search exactly
    // like a cache hit (and re-warms the cache so the next hit is
    // memory-speed).  Checked before single-flight -- a store hit needs
    // no dedup.
    if (_store) {
        trace::Span span("service.store.lookup");
        auto stored = _store->lookup(key);
        span.arg("hit", static_cast<int64_t>(stored ? 1 : 0));
        if (stored) {
            telemetry::noteStoreHit();
            if (use_cache)
                _cache.insert(key, *stored);
            return std::move(*stored);
        }
    }

    // Single-flight: claim the key or join the thread computing it.
    std::shared_ptr<Flight> flight;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(_flights_mutex);
        auto it = _flights.find(key);
        if (it == _flights.end()) {
            flight = std::make_shared<Flight>();
            _flights.emplace(key, flight);
            owner = true;
        } else {
            flight = it->second;
        }
    }

    if (!owner) {
        _coalesced.inc();
        telemetry::noteCoalesced();
        std::unique_lock<std::mutex> lock(flight->mutex);
        flight->cv.wait(lock, [&] { return flight->done; });
        if (flight->error)
            std::rethrow_exception(flight->error);
        return flight->answer;
    }

    ServiceAnswer answer;
    std::exception_ptr error;
    try {
        SearchBudget budget;
        budget.max_nodes = _options.max_visits;
        budget.deadline = Deadline::afterMillis(deadline_ms);
        {
            trace::Span span("service.search");
            answer = solveCanonical(canonical, objective, isg_lo,
                                    isg_hi, budget);
            span.arg("degraded",
                     static_cast<int64_t>(answer.degraded ? 1 : 0));
        }
        _searches.inc();
        if (answer.degraded && answer.degraded_reason == "deadline")
            _timeouts.inc();
        if (use_cache) {
            failpoint::fire("cache_insert");
            _cache.insert(key, answer);
        }
        // Persist after the search; a rolled-back append (fail point,
        // full disk) costs durability for this one answer, not the
        // answer itself.
        if (_store)
            _store->append(key, answer);
    } catch (...) {
        error = std::current_exception();
    }

    // Publish to waiters (after the cache insert, so a thread that
    // sees the flight gone also sees the cached entry), then retire
    // the flight.
    {
        std::lock_guard<std::mutex> lock(flight->mutex);
        flight->answer = answer;
        flight->error = error;
        flight->done = true;
    }
    flight->cv.notify_all();
    {
        std::lock_guard<std::mutex> lock(_flights_mutex);
        _flights.erase(key);
    }
    if (error)
        std::rethrow_exception(error);
    return answer;
}

uint64_t
QueryService::searchesExecuted() const
{
    return _searches.value();
}

} // namespace service
} // namespace uov
