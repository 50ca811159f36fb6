/**
 * @file
 * Request-scoped trace context: one 64-bit id per request, carried by
 * value and mirrored into a thread-local scope so every layer a
 * request passes through -- executor, service, search, codegen/tune --
 * can stamp the same id into its structured logs, its flight-recorder
 * digest, and its Perfetto span args without threading a parameter
 * through every signature.
 *
 * The propagation contract (DESIGN.md "Telemetry plane"):
 *
 *  - The batch executor mints a fresh TraceContext per request
 *    (newTrace()) and opens a TraceScope for the request's whole
 *    execution on its pool thread.  A request never migrates threads
 *    mid-flight (the pool runs each task to completion, single-flight
 *    owners compute inline), so the thread-local scope is exactly the
 *    request scope.
 *  - Inner layers read currentTrace() and *add* facts (key hash,
 *    cache hit, store hit, nodes expanded) to the scope's flight
 *    digest through the note* helpers; they never mint ids.  Outside
 *    any scope both are inert: currentTrace() is id 0, the note*
 *    helpers are no-ops -- one thread_local load, so the hooks can
 *    live permanently in the serving path.
 *  - The executor completes the same digest (trace id, index, verb,
 *    outcome, cause, wall time) and records it: one struct carries a
 *    request's facts from its first layer to the flight recorder.
 *  - Ids are process-unique, nonzero, and have the top bit clear (so
 *    they round-trip through int64 span args).  They are *not* part
 *    of any response line unless the caller opts in (`uovd
 *    --trace-ids`): the admin plane must not perturb byte-identical
 *    responses.
 *
 * installLoggerTraceIds() points the support logger's trace-id hook
 * at the thread-local scope, which links log records to the id
 * (support cannot depend on telemetry, hence the function-pointer
 * inversion).
 */

#ifndef UOV_TELEMETRY_TRACE_CONTEXT_H
#define UOV_TELEMETRY_TRACE_CONTEXT_H

#include <cstdint>
#include <string>

#include "telemetry/flight_recorder.h"

namespace uov {
namespace telemetry {

/** The per-request trace context, passed and captured by value. */
struct TraceContext
{
    uint64_t id = 0; ///< 0 = no context

    bool valid() const { return id != 0; }
};

/** Mint a fresh process-unique id (nonzero, top bit clear). */
TraceContext newTrace();

/** The current thread's context ({0} outside any scope). */
TraceContext currentTrace();

/** 16-hex-digit wire form of the current id ("" outside a scope). */
std::string currentTraceHex();

/**
 * The flight digest the innermost active scope on this thread is
 * filling; null outside any scope.  Callers must not retain the
 * pointer past the scope.
 */
FlightDigest *currentDigest();

// Digest helpers: one thread_local load, no-ops outside a scope.
void noteKeyHash(uint64_t hash);
void noteCacheHit();
void noteStoreHit();
void noteCoalesced();
void noteSearch(uint64_t nodes_expanded);

/**
 * RAII request scope: publishes @p ctx (and a fresh flight digest)
 * as this thread's current context; restores the previous scope on
 * destruction, so nested scopes (a request issuing a sub-request)
 * stack correctly.
 */
class TraceScope
{
  public:
    explicit TraceScope(TraceContext ctx);
    ~TraceScope();

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

    const TraceContext &context() const { return _ctx; }
    FlightDigest &digest() { return _digest; }

  private:
    TraceContext _ctx;
    FlightDigest _digest;
    TraceScope *_prev;
};

/**
 * Point the support logger's trace-id hook at the thread-local scope
 * so every log line emitted inside a TraceScope carries the id.
 * Idempotent; call once from the driver when the telemetry plane is
 * armed.
 */
void installLoggerTraceIds();

} // namespace telemetry
} // namespace uov

#endif // UOV_TELEMETRY_TRACE_CONTEXT_H
