#include "telemetry/trace_context.h"

#include <atomic>
#include <chrono>

#include "support/logging.h"
#include "support/rng.h"

namespace uov {
namespace telemetry {

namespace {

thread_local TraceScope *t_scope = nullptr;

/**
 * Id stream: splitmix64 over a process-unique base.  The base mixes
 * startup time with an address so two daemons started in the same
 * tick still draw disjoint streams; ids never influence responses,
 * so reproducibility is not required -- uniqueness and cheapness are.
 */
uint64_t
nextRawId()
{
    static std::atomic<uint64_t> counter{0};
    static const uint64_t base = [] {
        auto ticks = static_cast<uint64_t>(
            std::chrono::steady_clock::now().time_since_epoch()
                .count());
        return SplitMix64(ticks ^ reinterpret_cast<uintptr_t>(&counter))
            .next();
    }();
    return SplitMix64(base +
                      counter.fetch_add(1, std::memory_order_relaxed))
        .next();
}

uint64_t
currentIdForLogger()
{
    return t_scope != nullptr ? t_scope->context().id : 0;
}

} // namespace

TraceContext
newTrace()
{
    TraceContext ctx;
    do {
        // Top bit clear so the id survives an int64 span arg; 0 is
        // reserved for "no context".
        ctx.id = nextRawId() & ~(uint64_t{1} << 63);
    } while (ctx.id == 0);
    return ctx;
}

TraceContext
currentTrace()
{
    return t_scope != nullptr ? t_scope->context() : TraceContext{};
}

std::string
currentTraceHex()
{
    TraceContext ctx = currentTrace();
    return ctx.valid() ? traceIdHex(ctx.id) : std::string();
}

FlightDigest *
currentDigest()
{
    return t_scope != nullptr ? &t_scope->digest() : nullptr;
}

void
noteKeyHash(uint64_t hash)
{
    if (FlightDigest *d = currentDigest())
        d->key_hash = hash;
}

void
noteCacheHit()
{
    if (FlightDigest *d = currentDigest())
        d->cache_hit = true;
}

void
noteStoreHit()
{
    if (FlightDigest *d = currentDigest())
        d->store_hit = true;
}

void
noteCoalesced()
{
    if (FlightDigest *d = currentDigest())
        d->coalesced = true;
}

void
noteSearch(uint64_t nodes_expanded)
{
    if (FlightDigest *d = currentDigest())
        d->nodes = nodes_expanded;
}

TraceScope::TraceScope(TraceContext ctx) : _ctx(ctx), _prev(t_scope)
{
    t_scope = this;
}

TraceScope::~TraceScope()
{
    t_scope = _prev;
}

void
installLoggerTraceIds()
{
    Logger::instance().setTraceIdProvider(&currentIdForLogger);
}

} // namespace telemetry
} // namespace uov
