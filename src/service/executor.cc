#include "service/executor.h"

#include <chrono>
#include <functional>
#include <future>
#include <iomanip>
#include <istream>
#include <sstream>

#include <algorithm>

#include "codegen/codegen.h"
#include "codegen/jit.h"
#include "support/deadline.h"
#include "support/error.h"
#include "tune/tune.h"
#include "support/failpoint.h"
#include "support/lex.h"
#include "support/logging.h"
#include "support/trace.h"
#include "telemetry/trace_context.h"

namespace uov {
namespace service {

Request
parseRequestLine(std::string_view line, size_t index,
                 int64_t default_deadline_ms)
{
    TRACE_SPAN("service.parse");
    Request r;
    r.index = index;
    r.deadline_ms = default_deadline_ms < 0 ? -1 : default_deadline_ms;
    auto fail = [&](const std::string &msg) {
        r.error = msg;
        return r;
    };

    // A clause reads past its last token with tok still on it, as
    // operator>> would leave it; the error texts below rely on that.
    Tokens toks(line);
    std::string_view tok;
    toks.next(tok);
    if (tok != "query")
        return fail("expected 'query', got '" + std::string(tok) + "'");

    toks.next(tok);
    if (tok == "shortest") {
        r.objective = SearchObjective::ShortestVector;
    } else if (tok == "storage") {
        r.objective = SearchObjective::BoundedStorage;
    } else if (tok == "native") {
        r.native = true;
    } else if (tok == "tune") {
        r.tune = true;
    } else {
        return fail("bad objective '" + std::string(tok) +
                    "', expected shortest|storage|native|tune");
    }

    if (!toks.next(tok))
        return fail("missing 'deps'");

    if (tok == "deadline_ms") {
        if (!toks.next(tok))
            return fail("'deadline_ms' needs a millisecond count");
        int64_t ms;
        if (!parseWholeNumber(tok, ms) || ms < -1)
            return fail("bad deadline '" + std::string(tok) +
                        "', expected -1 or a millisecond count");
        r.deadline_ms = ms;
        if (!toks.next(tok))
            return fail("missing 'deps'");
    }

    if (tok == "bounds") {
        std::vector<int64_t> los, his;
        while (toks.next(tok) && tok != "deps") {
            int64_t lo, hi;
            if (!parseRange(tok, lo, hi))
                return fail("bad range '" + std::string(tok) +
                            "', expected lo..hi");
            if (lo > hi)
                return fail("empty range '" + std::string(tok) + "'");
            los.push_back(lo);
            his.push_back(hi);
        }
        if (los.empty())
            return fail("'bounds' needs at least one range");
        if (tok != "deps")
            return fail("missing 'deps'");
        r.isg_lo = IVec(los);
        r.isg_hi = IVec(his);
    }

    if (tok != "deps")
        return fail("expected 'bounds' or 'deps', got '" +
                    std::string(tok) + "'");

    std::vector<int64_t> coords;
    while (toks.next(tok)) {
        if (!parseTuple(tok, coords))
            return fail("bad dependence '" + std::string(tok) +
                        "', expected [o1,o2,...]");
        r.deps.emplace_back(coords);
    }
    if (r.deps.empty())
        return fail("'deps' needs at least one vector");

    if (r.native && !r.isg_lo)
        return fail("native query needs 'bounds'");
    if (r.tune && !r.isg_lo)
        return fail("tune query needs 'bounds'");
    bool bounded_objective = r.native || r.tune ||
                             r.objective == SearchObjective::BoundedStorage;
    if (!r.native && !r.tune &&
        r.objective == SearchObjective::BoundedStorage && !r.isg_lo)
        return fail("storage query needs 'bounds'");
    if (!bounded_objective && r.isg_lo)
        return fail("'bounds' is only valid for storage, native, and "
                    "tune queries");
    if (r.isg_lo && r.isg_lo->dim() != r.deps[0].dim())
        return fail("bounds rank " +
                    std::to_string(r.isg_lo->dim()) +
                    " does not match dependence rank " +
                    std::to_string(r.deps[0].dim()));
    return r;
}

std::vector<Request>
parseRequests(std::istream &in, int64_t default_deadline_ms)
{
    std::vector<Request> requests;
    std::string raw;
    while (std::getline(in, raw)) {
        std::string_view line = stripComment(raw), first;
        if (!Tokens(line).next(first))
            continue;
        requests.push_back(parseRequestLine(line, requests.size() + 1,
                                            default_deadline_ms));
    }
    return requests;
}

namespace {

using Kind = telemetry::FlightDigest::Outcome;

/**
 * One request's typed result.  Every answer path returns one, and
 * render() is the only code that turns it into response text, so the
 * counters, flight digests and outcome logs read it, never the wire.
 */
struct Outcome
{
    Kind kind = Kind::Optimal;
    std::string cause; ///< degraded reason or error message
    std::string body;  ///< the text after "answer <idx> "
};

Outcome
failure(std::string message)
{
    return {Kind::Error, std::move(message), ""};
}

/**
 * A certified answer: Optimal, or Degraded when a budget cut it short
 * (Shed when that budget was the shed floor's).
 */
Outcome
answered(std::string body, bool degraded, const std::string &reason)
{
    if (!degraded)
        return {Kind::Optimal, "", std::move(body)};
    return {reason == "shed" ? Kind::Shed : Kind::Degraded, reason,
            std::move(body)};
}

/** The one wire encoding: "answer <idx> <body>" or "error <idx> <msg>". */
std::string
render(size_t index, const Outcome &outcome)
{
    if (outcome.kind == Kind::Error)
        return "error " + std::to_string(index) + " " + outcome.cause;
    return "answer " + std::to_string(index) + " " + outcome.body;
}

Outcome
nativeOutcome(const Request &request)
{
    try {
        Stencil stencil(request.deps);
        // The deadline gate precedes the compiler probe so a 0 ms
        // request draws the same (deterministic) error line on every
        // host.  Native timing has no anytime fallback -- a partial
        // compile is worthless -- so an expired budget is an error,
        // not a degraded answer.
        Deadline deadline = Deadline::afterMillis(request.deadline_ms);
        auto requireTime = [&](const char *stage) {
            UOV_REQUIRE(!deadline.expired(),
                        "deadline_ms " << request.deadline_ms
                            << " expired " << stage
                            << "; native timing needs the full run "
                               "(raise or drop the deadline)");
        };
        requireTime("before compilation");
        UOV_REQUIRE(JitCompiler::hostCompilerAvailable(),
                    "native query needs a host C compiler (set UOV_CC "
                    "or put cc, gcc, or clang on PATH)");

        // Realize the stencil as the paper's single-statement nest
        // over the bounds box (reads at minus each distance).
        LoopNest nest = nestFromStencil(stencil, *request.isg_lo,
                                        *request.isg_hi, "native");
        tune::JitEvaluator jit;
        tune::NativeMeasurement m = jit.measureNative(nest, requireTime);

        std::ostringstream oss;
        oss << "native uov=" << m.plan.mapping.ov().str()
            << " cells=" << m.plan.mapping.cellCount() << " storage="
            << (m.storage == GenStorage::OvMapped ? "ov" : "expanded")
            << " unroll=" << m.unroll << " jam=" << m.jam << std::fixed
            << std::setprecision(2) << " interp_ns=" << m.interp_ns
            << " lex_ns=" << m.lex_ns << " rtile_ns=" << m.rtile_ns
            << " speedup_lex="
            << static_cast<double>(m.interp_ns) /
                   static_cast<double>(m.lex_ns)
            << " speedup_rtile="
            << static_cast<double>(m.interp_ns) /
                   static_cast<double>(m.rtile_ns)
            << " verified=ok";
        return answered(oss.str(), false, "");
    } catch (const UovError &e) {
        return failure(e.what());
    }
}

Outcome
tuneOutcome(const Request &request)
{
    try {
        TRACE_SPAN("service.tune");
        Stencil stencil(request.deps);
        LoopNest nest = nestFromStencil(stencil, *request.isg_lo,
                                        *request.isg_hi, "tune");

        tune::TuneOptions topt;
        topt.budget.deadline = Deadline::afterMillis(request.deadline_ms);
        tune::SimEvaluator sim;
        topt.evaluator = &sim;
        tune::Tuner tuner(nest, topt);
        tune::TuneResult res = tuner.run();

        const tune::TuneCandidate &best = res.best;
        bool ov = best.storage == GenStorage::OvMapped;
        std::ostringstream oss;
        oss << "tune uov=" << (ov ? best.uov().str() : "none")
            << " storage=" << (ov ? "ov" : "expanded")
            << " schedule=" << best.schedule.str()
            << " cells=" << best.cells() << " sim_cycles="
            << static_cast<int64_t>(res.best_score)
            << " evaluated=" << res.evaluated << "/"
            << res.candidates_total;
        if (res.degraded())
            oss << " degraded=" << res.degraded_reason;
        auto done = [&] {
            return answered(oss.str(), res.degraded(),
                            res.degraded_reason);
        };

        // Measurement tail: wall-clock figures, exempt from the
        // byte-determinism contract like 'query native' timings.  A
        // nest the emitter cannot take reads like a missing compiler,
        // so the line is the same on every host.
        if (!JitCompiler::hostCompilerAvailable() ||
            nest.depth() > kMaxCodegenDepth) {
            oss << " measure=unavailable";
            return done();
        }
        // The one deadline check of the tail: the measured kernels
        // compile as one translation unit, so there is no point
        // between compiles to stop at.
        if (topt.budget.deadline.expired()) {
            oss << " measure=deadline";
            return done();
        }
        // Candidate 0, the default lexicographic kernel, is measured
        // first, then the top simulator-ranked lowerable candidates;
        // ties keep the earlier kernel.
        std::vector<tune::TuneCandidate> measured;
        for (size_t idx : tuner.measuredSet())
            measured.push_back(tuner.candidates()[idx]);
        tune::JitEvaluator jit_eval;
        tune::TuneContext ctx(nest, tuner.stencil());
        std::vector<double> ns = jit_eval.scoreAll(ctx, measured);
        size_t fastest = static_cast<size_t>(
            std::min_element(ns.begin(), ns.end()) - ns.begin());
        oss << std::fixed << std::setprecision(2)
            << " lex_ns=" << static_cast<int64_t>(ns[0])
            << " best_ns=" << static_cast<int64_t>(ns[fastest])
            << " speedup_vs_lex=" << ns[0] / ns[fastest]
            << " best_measured={" << measured[fastest].str() << "}"
            << " verified=ok";
        return done();
    } catch (const UovError &e) {
        return failure(e.what());
    }
}

using SolveFn =
    std::function<ServiceAnswer(const Request &, const Stencil &)>;

Outcome
solveOutcome(const Request &request, const SolveFn &solve)
{
    try {
        ServiceAnswer solved = solve(request, Stencil(request.deps));
        failpoint::fire("answer_render");
        TRACE_SPAN("service.render");
        return answered(solved.str(), solved.degraded,
                        solved.degraded_reason);
    } catch (const UovUserError &e) {
        return failure(e.what());
    } catch (const UovOverflowError &e) {
        return failure(e.what());
    } catch (const failpoint::FailPointError &e) {
        return failure(e.what());
    }
}

/**
 * The one dispatch every answer path shares (service, direct, shed):
 * a parse error, a native or tune run, or a solve through @p solve.
 * Input-dependent failures become Error outcomes; internal errors
 * propagate.
 */
Outcome
answer(const Request &request, const SolveFn &solve)
{
    if (!request.error.empty())
        return failure(request.error);
    if (request.native)
        return nativeOutcome(request);
    if (request.tune)
        return tuneOutcome(request);
    return solveOutcome(request, solve);
}

Outcome
answerThroughService(QueryService &service, const Request &request)
{
    return answer(request, [&service](const Request &r, const Stencil &s) {
        return service.query(s, r.objective, r.isg_lo, r.isg_hi,
                             r.deadline_ms);
    });
}

/**
 * The shed solver: the anytime floor.  A zero-node budget
 * deterministically returns the certified ov_o incumbent without
 * expanding a single search node -- exactly what an overloaded server
 * can afford.
 */
ServiceAnswer
shedFloor(const Request &request, const Stencil &stencil)
{
    SearchBudget budget;
    budget.max_nodes = 0;
    ServiceAnswer shed = solveDirect(stencil, request.objective,
                                     request.isg_lo, request.isg_hi,
                                     budget);
    shed.degraded = true;
    shed.degraded_reason = "shed";
    return shed;
}

} // namespace

std::string
runRequest(QueryService &service, const Request &request)
{
    return render(request.index, answerThroughService(service, request));
}

AdmissionController::AdmissionController(AdmissionOptions options,
                                         MetricsRegistry &metrics)
    : _options(options),
      _admitted(metrics.counter("service.shed.admitted")),
      _responses(metrics.counter("service.shed.responses")),
      _engaged(metrics.counter("service.shed.engaged")),
      _recovered(metrics.counter("service.shed.recovered")),
      _active(metrics.gauge("service.shed.active"))
{
}

bool
AdmissionController::admit(int64_t queue_depth)
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (_options.high_water <= 0) {
        _admitted.inc();
        return true;
    }
    if (!_shedding && queue_depth >= _options.high_water) {
        _shedding = true;
        _engaged.inc();
        _active.set(1);
    } else if (_shedding && queue_depth <= _options.high_water / 2) {
        _shedding = false;
        _recovered.inc();
        _active.set(0);
    }
    if (_shedding) {
        _responses.inc();
        return false;
    }
    _admitted.inc();
    return true;
}

std::string
shedRequest(const Request &request)
{
    return render(request.index, answer(request, shedFloor));
}

namespace {

telemetry::FlightDigest::Verb
requestVerb(const Request &request)
{
    using Verb = telemetry::FlightDigest::Verb;
    if (!request.error.empty())
        return Verb::Unknown;
    if (request.native)
        return Verb::Native;
    if (request.tune)
        return Verb::Tune;
    return request.objective == SearchObjective::BoundedStorage
               ? Verb::Storage
               : Verb::Shortest;
}

/**
 * One request's telemetry: add the trace id, index, verb, outcome,
 * cause and wall time to @p digest (a copy of what the request's
 * layers noted in its scope), record it into the flight recorder, and
 * log an Info line per non-optimal outcome (inside the request's
 * TraceScope, so the log line carries the id).
 */
void
recordOutcome(const TelemetryPlane &plane, const Request &request,
              telemetry::FlightDigest digest, telemetry::TraceContext ctx,
              const Outcome &outcome, uint64_t wall_us)
{
    using FD = telemetry::FlightDigest;
    digest.trace_id = ctx.id;
    digest.request_index = request.index;
    digest.wall_us = wall_us;
    digest.verb = requestVerb(request);
    digest.outcome = outcome.kind;
    digest.setCause(outcome.cause);
    if (plane.flight != nullptr)
        plane.flight->record(digest);
    if (digest.outcome != Kind::Optimal)
        UOV_LOG_INFO("request " << request.index << " outcome="
                     << FD::outcomeName(digest.outcome) << " cause='"
                     << digest.causeStr() << "' verb="
                     << FD::verbName(digest.verb)
                     << " wall_us=" << wall_us);
}

/** Wall-clock microseconds since @p start (clamped non-negative). */
uint64_t
wallMicrosSince(Deadline::Clock::time_point start)
{
    int64_t us = std::chrono::duration_cast<std::chrono::microseconds>(
                     Deadline::Clock::now() - start)
                     .count();
    return us < 0 ? 0 : static_cast<uint64_t>(us);
}

} // namespace

std::vector<std::string>
runBatch(QueryService &service, const std::vector<Request> &requests,
         ThreadPool &pool, AdmissionController *admission,
         const TelemetryPlane *plane)
{
    std::vector<std::string> responses(requests.size());
    MetricsRegistry &metrics = service.metrics();
    Gauge &depth = metrics.gauge("service.queue_depth");
    Histogram &queue_wait = metrics.histogram("service.queue_wait_us");
    Counter &optimal = metrics.counter("service.optimal");
    Counter &degraded = metrics.counter("service.degraded");
    Counter &errors = metrics.counter("service.request_errors");
    Histogram &latency = metrics.histogram("service.latency_us");
    uint64_t fires_before =
        failpoint::Registry::instance().totalFires();

    // Answer request i inside its own trace scope, then run the one
    // epilogue every response takes -- pooled, shed and admission
    // error alike: count the outcome (the three counters sum to the
    // batch size, asserted by the fault fuzz oracle), render, time the
    // request once into service.latency_us and the plane's digest, and
    // append the opt-in trace_id token.
    auto serve = [&](size_t i, auto &&produce) {
        const Request &request = requests[i];
        // The request runs whole on this thread, so a thread-local
        // trace scope covers every layer it enters; the span arg
        // links the Perfetto track to the same id.
        telemetry::TraceContext ctx;
        std::optional<telemetry::TraceScope> scope;
        if (plane != nullptr) {
            ctx = telemetry::newTrace();
            scope.emplace(ctx);
        }
        trace::Span span("service.request");
        span.arg("index", static_cast<int64_t>(request.index));
        if (ctx.valid())
            span.arg("trace_id", static_cast<int64_t>(ctx.id));
        auto started = Deadline::Clock::now();
        Outcome outcome = produce();
        if (outcome.kind == Kind::Error)
            errors.inc();
        else if (outcome.kind == Kind::Optimal)
            optimal.inc();
        else
            degraded.inc();
        responses[i] = render(request.index, outcome);
        uint64_t wall_us = wallMicrosSince(started);
        latency.observe(wall_us);
        if (plane != nullptr) {
            recordOutcome(*plane, request, scope->digest(), ctx, outcome,
                          wall_us);
            if (plane->trace_ids)
                responses[i] += " trace_id=" + traceIdHex(ctx.id);
        }
    };

    std::vector<std::future<void>> futures;
    futures.reserve(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
        // Admission decision happens on the submitting thread, before
        // the request touches the queue: a shed request is answered
        // inline with the certified ov_o floor and never enqueued.
        const Request &request = requests[i];
        if (admission != nullptr && !request.native && !request.tune &&
            request.error.empty()) {
            try {
                failpoint::fire("admission");
            } catch (const std::exception &e) {
                serve(i, [&] { return failure(e.what()); });
                continue;
            }
            if (!admission->admit(depth.value())) {
                serve(i, [&] { return answer(request, shedFloor); });
                continue;
            }
        }
        depth.add(1);
        auto enqueued = Deadline::Clock::now();
        futures.push_back(pool.submit([&service, &requests, &depth,
                                       &queue_wait, &serve, enqueued, i] {
            int64_t wait_us =
                std::chrono::duration_cast<std::chrono::microseconds>(
                    Deadline::Clock::now() - enqueued)
                    .count();
            queue_wait.observe(
                wait_us < 0 ? 0 : static_cast<uint64_t>(wait_us));
            TRACE_COUNTER("service.queue_wait", "us", wait_us);
            serve(i, [&] {
                // Per-request error isolation: whatever this request
                // throws -- an armed fail point, even an internal
                // error -- becomes its own error line; the batch
                // always runs to completion.
                Outcome outcome;
                try {
                    failpoint::fire("task_start");
                    outcome = answerThroughService(service, requests[i]);
                } catch (const std::exception &e) {
                    outcome = failure(e.what());
                }
                depth.sub(1);
                return outcome;
            });
        }));
    }
    // Drain every future before unwinding (tasks capture locals).
    for (auto &f : futures)
        f.get();

    uint64_t fires_after = failpoint::Registry::instance().totalFires();
    if (fires_after > fires_before)
        metrics.counter("service.failpoint_fires")
            .inc(fires_after - fires_before);
    return responses;
}

std::vector<std::string>
runBatchDirect(const std::vector<Request> &requests, uint64_t max_visits)
{
    SolveFn direct = [max_visits](const Request &r, const Stencil &s) {
        SearchBudget budget;
        budget.max_nodes = max_visits;
        budget.deadline = Deadline::afterMillis(r.deadline_ms);
        return solveDirect(s, r.objective, r.isg_lo, r.isg_hi, budget);
    };
    std::vector<std::string> responses;
    responses.reserve(requests.size());
    for (const Request &r : requests)
        responses.push_back(render(r.index, answer(r, direct)));
    return responses;
}

} // namespace service
} // namespace uov
