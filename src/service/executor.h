/**
 * @file
 * Batch executor: the newline-delimited query protocol and the fan-out
 * of parsed requests onto a ThreadPool.
 *
 * Protocol (one request per line; '#' comments and lines without a
 * token are skipped and consume no request index; tokens, 'lo..hi'
 * ranges and bracketed integer tuples come from support/lex.h, the
 * lexer driver/nest_parser shares):
 *
 *     # best UOV by squared length
 *     query shortest deps [1,0] [0,1] [1,1]
 *     # best UOV by storage cells over the bounded ISG
 *     query storage bounds 0..17 0..99 deps [1,-2] [1,-1] [1,0] [1,1] [1,2]
 *     # anytime: degrade to the best answer found within 5 ms
 *     query shortest deadline_ms 5 deps [1,-1] [1,0] [1,1]
 *     # JIT-compile the mapped kernel and time it vs the interpreter
 *     query native bounds 0..17 0..99 deps [1,-1] [1,0] [1,1]
 *     # jointly tune (UOV, schedule, factors) over the bounds box
 *     query tune bounds 0..17 0..99 deps [1,-1] [1,0] [1,1]
 *
 * Responses are written strictly in request order, one line each:
 *
 *     answer <idx> best=(1, 1) value=2 initial=4 canon=3 cert=...
 *     error <idx> <message>
 *
 * so output is byte-deterministic for a given input at every thread
 * count (deadline_ms 0 and unbounded requests included; a positive
 * wall-clock deadline only promises a certified answer no worse than
 * ov_o).  A malformed or throwing request yields an error response
 * and the batch keeps going; the error text is part of the
 * deterministic contract.
 *
 * A 'query native' line realizes the stencil as a single-statement
 * nest over the bounds box and measures it through
 * tune::JitEvaluator::measureNative: the storage mapping's plan, then
 * the lexicographic and register-tiled kernels, JIT-compiled with the
 * host C compiler and verified bit-exactly against one interpreter
 * run:
 *
 *     answer <idx> native uov=<ov> cells=<n> storage=ov|expanded
 *         unroll=<u> jam=<j> interp_ns=<t> lex_ns=<t> rtile_ns=<t>
 *         speedup_lex=<x> speedup_rtile=<x> verified=ok
 *
 * interp_ns is the wall time of that one interpreter run, and lex_ns
 * and rtile_ns are JitEvaluator's median of 5 timed runs.  The _ns
 * figures and the speedups are wall-clock, outside the
 * byte-determinism contract; everything before " interp_ns=" is
 * deterministic.  A missing host compiler, an unplannable stencil,
 * a nest the emitter cannot take, or a deadline that expires before
 * compilation, after the interpreter baseline or before a JIT compile
 * becomes an "error <idx>" line.
 *
 * A 'query tune' line realizes the stencil over the bounds box and
 * runs the joint (UOV, schedule, tile/unroll) tuner under the request
 * deadline, scoring with the deterministic cache/TLB simulator:
 *
 *     answer <idx> tune uov=(2, 0) storage=ov schedule=unroll(4)
 *         cells=<n> sim_cycles=<c> evaluated=<k>/<total>
 *         [degraded=<reason>] ...
 *
 * Everything up to here is byte-deterministic (deadline_ms in
 * {-1, 0}; positive deadlines truncate the evaluated prefix).  When a
 * host compiler is available and the deadline has not expired, the
 * default lexicographic kernel and the top simulator-ranked lowerable
 * candidates (Tuner::measuredSet) are then compiled as one
 * translation unit and JIT-measured in that order (each verified
 * bit-exactly against the interpreter); the deadline is checked once,
 * before that compile.  The line continues in the _ns-exempt zone:
 *
 *     ... lex_ns=<t> best_ns=<t> speedup_vs_lex=<x>
 *         best_measured={...} verified=ok
 *
 * With no compiler, or a nest deeper than the emitter takes
 * (kMaxCodegenDepth dimensions), the tail is " measure=unavailable",
 * so such a line reads the same on every host; with an expired
 * deadline, " measure=deadline".
 *
 * Every answer path -- service, direct, shed, native, tune, parse
 * error, admission fault, a throwing pool task -- returns one typed
 * outcome (optimal, degraded, shed, or error, with its cause), and
 * one file-local render() is the only producer of response text.
 * Counters, flight digests and outcome logs read the typed outcome,
 * never the rendered line.
 */

#ifndef UOV_SERVICE_EXECUTOR_H
#define UOV_SERVICE_EXECUTOR_H

#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/service.h"
#include "support/deadline.h"
#include "support/thread_pool.h"
#include "telemetry/flight_recorder.h"

namespace uov {
namespace service {

/** One parsed protocol line (or its parse failure). */
struct Request
{
    size_t index = 0;       ///< 1-based request number
    std::string error;      ///< nonempty: parse failed, text to echo
    std::vector<IVec> deps; ///< as presented (not yet canonical)
    SearchObjective objective = SearchObjective::ShortestVector;
    bool native = false;    ///< 'query native': JIT timing request
    bool tune = false;      ///< 'query tune': joint autotune request
    std::optional<IVec> isg_lo;
    std::optional<IVec> isg_hi;
    int64_t deadline_ms = -1; ///< wall-clock budget; -1 = unbounded
};

/**
 * Parse every request line in @p in.  Never throws: malformed lines
 * become Requests carrying an error message.  Lines without an
 * explicit deadline_ms clause inherit @p default_deadline_ms.
 */
std::vector<Request> parseRequests(std::istream &in,
                                   int64_t default_deadline_ms = -1);

/** Parse one request line (no comment/blank handling). */
Request parseRequestLine(std::string_view line, size_t index,
                         int64_t default_deadline_ms = -1);

/**
 * Tracks in-flight requests and logs any still running past 2x their
 * deadline -- a stuck search is diagnosed while it is stuck, not
 * after.  A background thread polls every @p poll_ms; 0 disables the
 * thread so tests can drive flagOverdue() deterministically.
 */
class Watchdog
{
  public:
    explicit Watchdog(int64_t poll_ms = 25,
                      Counter *overdue = nullptr);
    ~Watchdog();

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /** Register request @p index as running now. */
    void start(size_t index, int64_t deadline_ms);

    /** Unregister a finished request. */
    void finish(size_t index);

    /**
     * Scan for requests past 2x deadline; each is warned about (and
     * counted) once.  Returns how many were newly flagged.
     */
    size_t flagOverdue();

  private:
    void loop(int64_t poll_ms);

    struct Entry
    {
        Deadline::Clock::time_point started;
        int64_t deadline_ms = -1;
        bool flagged = false;
    };

    std::mutex _mutex;
    std::condition_variable _cv;
    std::unordered_map<size_t, Entry> _entries;
    Counter *_overdue;
    bool _stop = false;
    std::thread _thread;
};

/**
 * Answer one request through the service; returns the full response
 * line ("answer ..." or "error ...").  Input-dependent failures
 * (invalid stencil, bad bounds) become error responses; internal
 * errors propagate.
 */
std::string runRequest(QueryService &service, const Request &request);

/** Admission-control configuration. */
struct AdmissionOptions
{
    /**
     * Engage shedding when service.queue_depth reaches this many
     * in-flight requests, and disengage once it falls back to
     * high_water / 2; 0 disables admission control entirely.  The gap
     * is the hysteresis band -- without it a queue hovering at the
     * high-water mark would flap between admitting and shedding on
     * every request.
     */
    int64_t high_water = 0;
};

/**
 * Overload policy for the batch executor: past the high-water mark,
 * new solve requests are answered *inline* with the certified ov_o
 * anytime floor (a zero-node-budget solveDirect, degraded_reason
 * "shed") instead of being queued -- the caller still gets a legal,
 * certified UOV, just not an optimized one, and the queue cannot grow
 * without bound.  Native/tune requests and parse errors bypass
 * admission (they never enter the solver queue's cost model).
 *
 * Metrics: counters service.shed.admitted / .responses (shed answers
 * served) / .engaged / .recovered (hysteresis transitions) and gauge
 * service.shed.active.  Thread-safe; one controller may serve many
 * batches.
 *
 * Shedding makes *which* requests degrade timing-dependent, so a batch
 * run with a controller attached is exempt from the byte-determinism
 * contract -- every individual line is still either a certified answer
 * or a deterministic error line.
 */
class AdmissionController
{
  public:
    AdmissionController(AdmissionOptions options,
                        MetricsRegistry &metrics);

    /**
     * Decide one request's fate given the current queue depth.
     * True = admit (enqueue normally); false = shed.
     */
    bool admit(int64_t queue_depth);

    /** Currently past the high-water mark (test introspection). */
    bool shedding() const;

  private:
    AdmissionOptions _options;
    mutable std::mutex _mutex;
    bool _shedding = false;
    Counter &_admitted;
    Counter &_responses;
    Counter &_engaged;
    Counter &_recovered;
    Gauge &_active;
};

/**
 * Build the inline shed response for @p request: the certified ov_o
 * seed (zero-node search budget) marked degraded=shed.  Exposed so
 * tests and the durability oracle can assert shed-answer legality.
 */
std::string shedRequest(const Request &request);

/**
 * The batch executor's hookup to the live telemetry plane.  When a
 * plane is attached to runBatch, every request (inline shed and
 * admission-error responses included) runs inside a fresh TraceScope:
 * one 64-bit trace id links the structured log lines, the
 * flight-recorder digest and the "service.request" Perfetto span for
 * that request, and each non-optimal outcome is logged at Info level
 * (the logger's level gates the line).  All pointers optional; a
 * default-constructed plane still mints trace ids (log/span linkage
 * without a recorder).
 *
 * Determinism: recording is observation-only.  Response bytes are
 * unchanged unless @p trace_ids opts in, which appends the
 * " trace_id=<16 hex>" token -- timing-unique, hence exempt from the
 * byte-determinism contract exactly like native/tune _ns fields.
 */
struct TelemetryPlane
{
    telemetry::FlightRecorder *flight = nullptr;
    bool trace_ids = false; ///< append " trace_id=..." to responses
};

/**
 * Answer a batch on @p pool (requests fan out; identical in-flight
 * queries coalesce inside the service).  Responses are returned in
 * request order.  The pool's queue depth is tracked in the service's
 * "service.queue_depth" gauge.
 *
 * Error isolation: every exception a request raises -- bad input, an
 * armed fail point, even an internal error -- becomes that request's
 * "error <idx> ..." line; the batch always completes.  Each response
 * is counted from its typed outcome, as it finishes, in exactly one
 * of the "service.optimal", "service.degraded", or
 * "service.request_errors" counters, so the three always sum to the
 * batch size, and its wall time -- from the moment a worker (or, for
 * shed and admission-error lines, the submitting thread) takes it up
 * to its rendered line -- is observed once into "service.latency_us",
 * so that histogram's count is the batch size too.
 *
 * @p admission, when non-null, applies overload shedding to solve
 * requests (see AdmissionController); the fail-point site "admission"
 * fires per admission decision.  @p plane, when non-null, attaches
 * the live telemetry plane (see TelemetryPlane).
 */
std::vector<std::string> runBatch(QueryService &service,
                                  const std::vector<Request> &requests,
                                  ThreadPool &pool,
                                  AdmissionController *admission = nullptr,
                                  const TelemetryPlane *plane = nullptr);

/** Single-threaded reference executor (no pool, no service state). */
std::vector<std::string>
runBatchDirect(const std::vector<Request> &requests,
               uint64_t max_visits = 10'000'000);

} // namespace service
} // namespace uov

#endif // UOV_SERVICE_EXECUTOR_H
