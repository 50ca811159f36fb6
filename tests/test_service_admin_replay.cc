/**
 * @file
 * The telemetry plane's service-level acceptance tests: arming the
 * plane must not change a single response byte, the flight recorder
 * must hold a digest (with a matching trace id, outcome and cause)
 * for every response -- pooled, shed, or admission error alike --
 * and the latency histogram and outcome counters must reconcile with
 * the batch.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/workload.h"
#include "service/executor.h"
#include "support/failpoint.h"
#include "support/logging.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/trace_context.h"

namespace uov {
namespace service {
namespace {

using telemetry::FlightDigest;

/** Small search budget: replay invariants are size-independent. */
constexpr uint64_t kVisitCap = 2'000;

ServiceOptions
cappedOptions()
{
    ServiceOptions opt;
    opt.max_visits = kVisitCap;
    return opt;
}

/**
 * A mixed replay: a duplicate-heavy fuzz workload plus hand-written
 * lines covering every outcome class -- zero-deadline degradation,
 * parse errors, and plain optimal answers.
 */
std::vector<Request>
mixedBatch(size_t fuzz_requests)
{
    fuzz::WorkloadOptions wopt;
    wopt.requests = fuzz_requests;
    wopt.distinct = 12;
    wopt.seed = 0xAD317;
    std::vector<Request> reqs = fuzz::makeWorkload(wopt);

    std::istringstream extra(
        "query shortest deadline_ms 0 deps [1,0] [0,1] [1,1]\n"
        "query shortest deadline_ms -2 deps [1,0]\n" // parse error
        "malformed\n"
        "query storage deadline_ms 0 bounds 0..7 0..7 "
        "deps [1,-1] [1,0] [1,1]\n");
    for (Request &r : parseRequests(extra)) {
        r.index = reqs.size() + 1;
        reqs.push_back(std::move(r));
    }
    return reqs;
}

/** The " trace_id=<16 hex>" suffix token, or "" when absent. */
std::string
traceToken(const std::string &response)
{
    size_t pos = response.rfind(" trace_id=");
    if (pos == std::string::npos)
        return "";
    return response.substr(pos + 10);
}

/** A response line's outcome and cause as a client reads them. */
struct WireOutcome
{
    FlightDigest::Outcome outcome = FlightDigest::Outcome::Optimal;
    std::string cause; ///< error message or degraded reason
};

/**
 * Read a response line (trace_id token stripped) the way a client
 * would: "error <idx> <message>" is an Error; a " degraded=<reason>"
 * token is Shed when the reason is "shed", else Degraded; anything
 * else is Optimal.
 */
WireOutcome
readWire(const std::string &line)
{
    using Outcome = FlightDigest::Outcome;
    if (line.rfind("error ", 0) == 0) {
        size_t sp = line.find(' ', 6);
        return {Outcome::Error,
                sp == std::string::npos ? "" : line.substr(sp + 1)};
    }
    size_t pos = line.find(" degraded=");
    if (pos == std::string::npos)
        return {};
    size_t begin = pos + 10;
    std::string reason =
        line.substr(begin, line.find(' ', begin) - begin);
    return {reason == "shed" ? Outcome::Shed : Outcome::Degraded,
            reason};
}

/** The digest's cause field holds at most kCauseBytes - 1 bytes. */
std::string
digestCause(const std::string &cause)
{
    return cause.substr(0, FlightDigest::kCauseBytes - 1);
}

/** Requests timed into @p metrics' service.latency_us so far. */
uint64_t
latencyCount(MetricsRegistry &metrics)
{
    return metrics.histogram("service.latency_us").snapshot().count;
}

/** Each request's digest, keyed by request index. */
std::map<uint64_t, FlightDigest>
digestsByRequest(const telemetry::FlightRecorder &flight)
{
    std::map<uint64_t, FlightDigest> by_request;
    for (const FlightDigest &d : flight.snapshot())
        by_request[d.request_index] = d;
    return by_request;
}

TEST(AdminReplay, ArmedPlaneIsByteIdenticalToBaseline)
{
    std::vector<Request> reqs = mixedBatch(400);

    std::vector<std::string> baseline;
    {
        MetricsRegistry metrics;
        QueryService svc(cappedOptions(), metrics);
        ThreadPool pool(4);
        baseline = runBatch(svc, reqs, pool);
        // Every request is timed, with or without a plane.
        EXPECT_EQ(latencyCount(metrics), reqs.size());
    }

    telemetry::FlightRecorder flight(1024);
    TelemetryPlane plane;
    plane.flight = &flight;
    plane.trace_ids = false; // observation only: bytes must not move

    MetricsRegistry metrics;
    QueryService svc(cappedOptions(), metrics);
    ThreadPool pool(4);
    std::vector<std::string> armed =
        runBatch(svc, reqs, pool, nullptr, &plane);

    ASSERT_EQ(armed.size(), baseline.size());
    for (size_t i = 0; i < armed.size(); ++i)
        ASSERT_EQ(armed[i], baseline[i]) << "request " << (i + 1);

    // The plane observed the whole batch even though it changed
    // nothing: one digest and one latency observation per request,
    // parse errors included.
    std::vector<FlightDigest> digests = flight.snapshot();
    ASSERT_FALSE(digests.empty());
    EXPECT_EQ(digests.back().seq, reqs.size());
    EXPECT_EQ(latencyCount(metrics), reqs.size());

    // Metric reconciliation is unchanged by the plane: every request
    // that reaches the service (parse errors never do) performs
    // exactly one cache lookup, and the outcome counters partition
    // the whole batch.
    size_t parse_errors = 0;
    for (const Request &r : reqs)
        if (!r.error.empty())
            ++parse_errors;
    EXPECT_EQ(metrics.counter("service.requests").value(),
              reqs.size() - parse_errors);
    auto st = svc.cacheStats();
    EXPECT_EQ(st.hits + st.misses, reqs.size() - parse_errors);
    EXPECT_EQ(metrics.counter("service.optimal").value() +
                  metrics.counter("service.degraded").value() +
                  metrics.counter("service.request_errors").value(),
              reqs.size());
}

TEST(AdminReplay, FlightHoldsEveryNonOptimalResponseWithItsTraceId)
{
    std::vector<Request> reqs = mixedBatch(120);

    telemetry::FlightRecorder flight(1024); // larger than the batch
    TelemetryPlane plane;
    plane.flight = &flight;
    plane.trace_ids = true;

    MetricsRegistry metrics;
    QueryService svc(cappedOptions(), metrics);
    ThreadPool pool(4);
    std::vector<std::string> responses =
        runBatch(svc, reqs, pool, nullptr, &plane);

    std::vector<FlightDigest> digests = flight.snapshot();
    ASSERT_EQ(digests.size(), reqs.size());
    std::map<uint64_t, const FlightDigest *> by_request;
    for (const FlightDigest &d : digests)
        by_request[d.request_index] = &d;

    size_t non_optimal = 0;
    size_t error_digests = 0;
    for (size_t i = 0; i < responses.size(); ++i) {
        // Opted-in responses all carry a trace id token...
        std::string token = traceToken(responses[i]);
        ASSERT_EQ(token.size(), 16u) << responses[i];

        auto it = by_request.find(i + 1);
        ASSERT_NE(it, by_request.end()) << "no digest for " << (i + 1);
        const FlightDigest &d = *it->second;

        // ...and the token is exactly the digest's trace id, so a
        // flight row, a log line, and a response line correlate.
        EXPECT_EQ(token, traceIdHex(d.trace_id))
            << responses[i];

        // The digest's outcome and cause match what the wire says
        // (the trace_id token follows the answer, so strip it).
        WireOutcome wire = readWire(
            responses[i].substr(0, responses[i].rfind(" trace_id=")));
        EXPECT_EQ(d.outcome, wire.outcome) << responses[i];
        EXPECT_EQ(d.causeStr(), digestCause(wire.cause))
            << responses[i];
        if (d.outcome != FlightDigest::Outcome::Optimal) {
            ++non_optimal;
            // Error digests explain themselves.
            if (d.outcome == FlightDigest::Outcome::Error) {
                ++error_digests;
                EXPECT_FALSE(d.causeStr().empty()) << responses[i];
            }
        }
    }
    // The hand-written tail guarantees at least one degraded line and
    // two error lines survived into the flight ring.
    EXPECT_GE(non_optimal, 3u);

    // The histogram and the error counter agree with the recorder.
    EXPECT_EQ(latencyCount(metrics), reqs.size());
    EXPECT_EQ(error_digests,
              metrics.counter("service.request_errors").value());
}

// Shed answers are produced on the submitting thread, concurrently
// with pooled requests, yet take the same epilogue: each one has a
// Shed digest, a latency observation, and a count.
TEST(AdminReplay, ShedAnswersCarryShedDigestsUnderOverload)
{
    std::vector<Request> reqs = mixedBatch(60);

    telemetry::FlightRecorder flight(1024);
    TelemetryPlane plane;
    plane.flight = &flight;

    MetricsRegistry metrics;
    QueryService svc(cappedOptions(), metrics);
    ThreadPool pool(2);
    AdmissionOptions ao;
    ao.high_water = 1; // shed nearly everything
    AdmissionController admission(ao, metrics);
    std::vector<std::string> responses =
        runBatch(svc, reqs, pool, &admission, &plane);

    std::map<uint64_t, FlightDigest> by_request =
        digestsByRequest(flight);
    ASSERT_EQ(by_request.size(), reqs.size());
    size_t shed_lines = 0;
    for (size_t i = 0; i < responses.size(); ++i) {
        const FlightDigest &d = by_request.at(i + 1);
        WireOutcome wire = readWire(responses[i]);
        EXPECT_EQ(d.outcome, wire.outcome) << responses[i];
        EXPECT_EQ(d.causeStr(), digestCause(wire.cause))
            << responses[i];
        if (responses[i].find(" degraded=shed") != std::string::npos) {
            ++shed_lines;
            EXPECT_EQ(d.outcome, FlightDigest::Outcome::Shed)
                << responses[i];
            EXPECT_EQ(d.causeStr(), "shed") << responses[i];
        }
    }
    uint64_t shed = metrics.counter("service.shed.responses").value();
    EXPECT_GT(shed, 0u) << "batch never crossed the high-water mark";
    EXPECT_EQ(shed_lines, shed);
    EXPECT_EQ(latencyCount(metrics), reqs.size());
    EXPECT_EQ(metrics.counter("service.optimal").value() +
                  metrics.counter("service.degraded").value() +
                  metrics.counter("service.request_errors").value(),
              reqs.size());
}

// An admission fault is answered inline as an error line; its digest
// carries the same message the client reads.
TEST(AdminReplay, AdmissionFaultDigestsCarryTheWireMessage)
{
    std::vector<Request> reqs = mixedBatch(30);

    telemetry::FlightRecorder flight(1024);
    TelemetryPlane plane;
    plane.flight = &flight;

    MetricsRegistry metrics;
    QueryService svc(cappedOptions(), metrics);
    ThreadPool pool(2);
    AdmissionOptions ao;
    ao.high_water = 1000; // admission runs, shedding never engages
    AdmissionController admission(ao, metrics);

    failpoint::ScopedFailPoints scope;
    failpoint::Config config;
    config.probability = 1.0;
    config.action = failpoint::Action::Throw;
    failpoint::Registry::instance().arm("admission", config);
    std::vector<std::string> responses =
        runBatch(svc, reqs, pool, &admission, &plane);

    std::map<uint64_t, FlightDigest> by_request =
        digestsByRequest(flight);
    ASSERT_EQ(by_request.size(), reqs.size());
    for (size_t i = 0; i < responses.size(); ++i) {
        const FlightDigest &d = by_request.at(i + 1);
        ASSERT_EQ(responses[i].rfind("error ", 0), 0u) << responses[i];
        EXPECT_EQ(d.outcome, FlightDigest::Outcome::Error)
            << responses[i];
        std::string prefix = "error " + std::to_string(i + 1) + " ";
        EXPECT_EQ(d.causeStr(),
                  digestCause(responses[i].substr(prefix.size())))
            << responses[i];
    }
    EXPECT_EQ(latencyCount(metrics), reqs.size());
    EXPECT_EQ(metrics.counter("service.request_errors").value(),
              reqs.size());
}

} // namespace
} // namespace service
} // namespace uov
