/**
 * @file
 * Unit tests for admission control and load shedding: the
 * AdmissionController's hysteresis state machine, the shed-response
 * wire contract (a certified Degraded answer, never an error), and
 * the batch-level accounting invariant that optimal + degraded +
 * request_errors always partitions the batch.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/uov.h"
#include "service/executor.h"
#include "support/failpoint.h"

namespace uov {
namespace service {
namespace {

/** Parse "best=(a,b,...)" out of a response line. */
std::optional<IVec>
parseBestVector(const std::string &line)
{
    size_t open = line.find("best=(");
    if (open == std::string::npos)
        return std::nullopt;
    size_t close = line.find(')', open);
    if (close == std::string::npos)
        return std::nullopt;
    std::vector<int64_t> coords;
    std::stringstream ss(line.substr(open + 6, close - open - 6));
    std::string part;
    while (std::getline(ss, part, ','))
        coords.push_back(std::stoll(part));
    if (coords.empty())
        return std::nullopt;
    return IVec(std::move(coords));
}

/** Parse " key=<int>" out of a response line. */
std::optional<int64_t>
parseField(const std::string &line, const std::string &key)
{
    std::string tag = " " + key + "=";
    size_t at = line.find(tag);
    if (at == std::string::npos)
        return std::nullopt;
    return std::stoll(line.substr(at + tag.size()));
}

std::vector<Request>
solveRequests(size_t n)
{
    std::vector<Request> reqs;
    for (size_t i = 0; i < n; ++i) {
        Request r;
        r.index = reqs.size() + 1;
        int64_t k = static_cast<int64_t>(i % 6) + 1;
        r.deps = {IVec{1, 0}, IVec{k, 1}, IVec{1, -k}};
        if (i % 2) {
            r.objective = SearchObjective::BoundedStorage;
            r.isg_lo = IVec{0, 0};
            r.isg_hi = IVec{9, 9};
        } else {
            r.objective = SearchObjective::ShortestVector;
        }
        reqs.push_back(std::move(r));
    }
    return reqs;
}

TEST(AdmissionController, AdmitsEverythingWhenDisabled)
{
    MetricsRegistry metrics;
    AdmissionOptions ao; // high_water == 0: disabled
    AdmissionController admission(ao, metrics);
    for (int64_t depth : {0, 100, 1000000})
        EXPECT_TRUE(admission.admit(depth));
    EXPECT_EQ(metrics.gauge("service.shed.active").value(), 0);
    EXPECT_EQ(metrics.counter("service.shed.admitted").value(), 3u);
    EXPECT_EQ(metrics.counter("service.shed.responses").value(), 0u);
}

TEST(AdmissionController, DefaultsLowWaterToHalfOfHigh)
{
    MetricsRegistry metrics;
    AdmissionOptions ao;
    ao.high_water = 10;
    AdmissionController admission(ao, metrics);
    Gauge &active = metrics.gauge("service.shed.active");
    EXPECT_FALSE(admission.admit(10));
    // Shedding holds down to one above half of high water...
    EXPECT_FALSE(admission.admit(6));
    EXPECT_EQ(active.value(), 1);
    // ...and stops there.
    EXPECT_TRUE(admission.admit(5));
    EXPECT_EQ(active.value(), 0);
}

TEST(AdmissionController, HysteresisEngagesAndRecovers)
{
    MetricsRegistry metrics;
    AdmissionOptions ao;
    ao.high_water = 4; // low water 2
    AdmissionController admission(ao, metrics);
    Gauge &active = metrics.gauge("service.shed.active");

    // Below high water: admitted, shedding stays off.
    EXPECT_TRUE(admission.admit(3));
    EXPECT_EQ(active.value(), 0);

    // Crossing high water engages shedding and sheds that request.
    EXPECT_FALSE(admission.admit(4));
    EXPECT_EQ(active.value(), 1);

    // Hysteresis: depths between low and high keep shedding -- no
    // flapping at the boundary.
    EXPECT_FALSE(admission.admit(3));
    EXPECT_EQ(active.value(), 1);

    // Draining to low water disengages; traffic is admitted again.
    EXPECT_TRUE(admission.admit(2));
    EXPECT_EQ(active.value(), 0);
    EXPECT_TRUE(admission.admit(3));

    // A second overload round engages again.
    EXPECT_FALSE(admission.admit(9));
    EXPECT_EQ(active.value(), 1);

    EXPECT_EQ(metrics.counter("service.shed.engaged").value(), 2u);
    EXPECT_EQ(metrics.counter("service.shed.recovered").value(), 1u);
    EXPECT_EQ(metrics.counter("service.shed.admitted").value(), 3u);
    EXPECT_EQ(metrics.counter("service.shed.responses").value(), 3u);
}

TEST(Shed, ShedRequestIsACertifiedDegradedAnswer)
{
    std::vector<Request> reqs = solveRequests(4);
    for (const Request &r : reqs) {
        std::string line = shedRequest(r);
        EXPECT_EQ(line.rfind("answer " + std::to_string(r.index), 0),
                  0u)
            << line;
        EXPECT_NE(line.find(" degraded=shed"), std::string::npos)
            << line;

        auto best = parseBestVector(line);
        auto value = parseField(line, "value");
        auto initial = parseField(line, "initial");
        ASSERT_TRUE(best && value && initial) << line;
        // The shed floor is still a *certified* universal vector no
        // worse than ov_o -- degraded, never wrong.
        UovOracle oracle{Stencil(r.deps)};
        EXPECT_TRUE(oracle.isUov(*best)) << line;
        EXPECT_LE(*value, *initial) << line;
    }

    // Malformed requests keep their parse error even when shed.
    Request bad;
    bad.index = 9;
    bad.error = "unknown verb 'bogus'";
    std::string line = shedRequest(bad);
    EXPECT_EQ(line, "error 9 unknown verb 'bogus'");
}

TEST(Shed, OverloadedBatchPartitionsIntoOptimalAndDegraded)
{
    std::vector<Request> reqs = solveRequests(24);
    Request bad;
    bad.index = reqs.size() + 1;
    bad.error = "unknown verb 'bogus'";
    reqs.push_back(bad);

    ServiceOptions so;
    MetricsRegistry metrics;
    QueryService svc(so, metrics);
    ThreadPool pool(2);
    AdmissionOptions ao;
    ao.high_water = 1; // shed nearly everything
    AdmissionController admission(ao, metrics);

    std::vector<std::string> responses =
        runBatch(svc, reqs, pool, &admission);
    ASSERT_EQ(responses.size(), reqs.size());

    uint64_t shed =
        metrics.counter("service.shed.responses").value();
    EXPECT_GT(shed, 0u) << "batch never crossed the high-water mark";
    EXPECT_EQ(metrics.counter("service.shed.admitted").value() + shed,
              static_cast<uint64_t>(reqs.size() - 1));

    // Satellite contract: the three response classes partition the
    // batch, and every degraded answer re-verifies against the exact
    // membership oracle.
    uint64_t optimal = metrics.counter("service.optimal").value();
    uint64_t degraded = metrics.counter("service.degraded").value();
    uint64_t errors =
        metrics.counter("service.request_errors").value();
    EXPECT_EQ(optimal + degraded + errors, reqs.size());
    EXPECT_EQ(errors, 1u); // only the parse error

    for (size_t i = 0; i < reqs.size(); ++i) {
        const std::string &line = responses[i];
        if (!reqs[i].error.empty()) {
            EXPECT_EQ(line.rfind("error ", 0), 0u) << line;
            continue;
        }
        auto best = parseBestVector(line);
        auto value = parseField(line, "value");
        auto initial = parseField(line, "initial");
        ASSERT_TRUE(best && value && initial) << line;
        UovOracle oracle{Stencil(reqs[i].deps)};
        EXPECT_TRUE(oracle.isUov(*best)) << line;
        EXPECT_LE(*value, *initial) << line;
    }
}

TEST(Shed, AdmissionFailPointDrawsErrorLinesNotCrashes)
{
    std::vector<Request> reqs = solveRequests(6);
    ServiceOptions so;
    MetricsRegistry metrics;
    QueryService svc(so, metrics);
    ThreadPool pool(2);
    AdmissionOptions ao;
    ao.high_water = 4;
    AdmissionController admission(ao, metrics);

    failpoint::ScopedFailPoints scope;
    failpoint::Config config;
    config.probability = 1.0;
    config.action = failpoint::Action::Throw;
    failpoint::Registry::instance().arm("admission", config);

    std::vector<std::string> responses =
        runBatch(svc, reqs, pool, &admission);
    for (size_t i = 0; i < reqs.size(); ++i)
        EXPECT_EQ(responses[i].rfind(
                      "error " + std::to_string(reqs[i].index), 0),
                  0u)
            << responses[i];
    EXPECT_EQ(metrics.counter("service.request_errors").value(),
              reqs.size());
}

} // namespace
} // namespace service
} // namespace uov
