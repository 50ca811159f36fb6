// Admin server tests: the socket lifecycle (ephemeral bind, resolved
// port, stop idempotence), the unit-testable handle() dispatch for
// every endpoint, the quit latch, and a real HTTP GET through a
// client socket.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "support/metrics.h"
#include "telemetry/admin_server.h"

using namespace uov;
using namespace uov::telemetry;

namespace {

/** One blocking HTTP/1.0 GET against 127.0.0.1:port. */
std::string
httpGet(uint16_t port, const std::string &path)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    std::string request =
        "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
    EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    std::string response;
    char buf[2048];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        response.append(buf, static_cast<size_t>(n));
    ::close(fd);
    return response;
}

std::string
body(const std::string &response)
{
    auto pos = response.find("\r\n\r\n");
    return pos == std::string::npos ? "" : response.substr(pos + 4);
}

} // namespace

TEST(AdminServer, EphemeralPortResolvesNonzero)
{
    MetricsRegistry metrics;
    AdminHooks hooks;
    hooks.metrics = &metrics;
    AdminServer server(hooks, 0);
    EXPECT_GT(server.port(), 0);
    server.stop();
    server.stop(); // idempotent
}

TEST(AdminServer, MetricsEndpointRendersRegistry)
{
    MetricsRegistry metrics;
    metrics.counter("service.requests").inc(3);
    AdminHooks hooks;
    hooks.metrics = &metrics;
    AdminServer server(hooks, 0);

    std::string response = server.handle("GET", "/metrics");
    EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(response.find("text/plain; version=0.0.4"),
              std::string::npos);
    EXPECT_NE(response.find("uov_service_requests_total 3"),
              std::string::npos);
}

TEST(AdminServer, QueryStringsAreStripped)
{
    MetricsRegistry metrics;
    AdminHooks hooks;
    hooks.metrics = &metrics;
    AdminServer server(hooks, 0);
    EXPECT_NE(server.handle("GET", "/metrics?x=1").find("200 OK"),
              std::string::npos);
}

TEST(AdminServer, FlightEndpointServesHookJson)
{
    FlightRecorder flight(8);
    FlightDigest d;
    d.trace_id = 0x42;
    d.request_index = 1;
    flight.record(d);

    AdminHooks hooks;
    hooks.flight = &flight;
    AdminServer server(hooks, 0);

    std::string fresp = server.handle("GET", "/flight");
    EXPECT_NE(fresp.find("\"recorded\":1"), std::string::npos);
    EXPECT_NE(fresp.find("0000000000000042"), std::string::npos);
}

TEST(AdminServer, MissingHooksDegradeGracefully)
{
    AdminHooks hooks; // everything null
    AdminServer server(hooks, 0);
    EXPECT_NE(server.handle("GET", "/metrics").find("200 OK"),
              std::string::npos);
    EXPECT_NE(
        server.handle("GET", "/flight").find("\"enabled\":false"),
        std::string::npos);
}

TEST(AdminServer, UnknownPathIs404AndPostIs405)
{
    AdminHooks hooks;
    AdminServer server(hooks, 0);
    // Latency, queue depth, shed state and store errors live in
    // /metrics and the span trace in --trace FILE; none has an
    // endpoint of its own.
    for (const char *path : {"/nope", "/slo", "/spans", "/healthz",
                             "/readyz"}) {
        std::string response = server.handle("GET", path);
        EXPECT_NE(response.find("404 Not Found"), std::string::npos)
            << path;
        EXPECT_NE(response.find("try /metrics /flight /quitquitquit\n"),
                  std::string::npos)
            << path;
    }
    EXPECT_NE(
        server.handle("POST", "/metrics").find("405 Method Not"),
        std::string::npos);
}

TEST(AdminServer, QuitLatchReleasesWaiters)
{
    AdminHooks hooks;
    AdminServer server(hooks, 0);
    EXPECT_FALSE(server.quitRequested());

    std::thread waiter([&server] { server.waitQuit(); });
    std::string response = server.handle("GET", "/quitquitquit");
    EXPECT_NE(response.find("200 OK"), std::string::npos);
    EXPECT_TRUE(server.quitRequested());
    waiter.join();
}

TEST(AdminServer, ServesRealHttpOverTheSocket)
{
    MetricsRegistry metrics;
    metrics.counter("service.requests").inc(9);
    AdminHooks hooks;
    hooks.metrics = &metrics;
    AdminServer server(hooks, 0);

    std::string response = httpGet(server.port(), "/metrics");
    EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(body(response).find("uov_service_requests_total 9"),
              std::string::npos);
    EXPECT_GE(server.requestsServed(), 1u);

    // A malformed request draws a 400, not a hang.
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const char *garbage = "\r\n\r\n";
    ASSERT_EQ(::send(fd, garbage, std::strlen(garbage), 0), 4);
    char buf[256];
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    EXPECT_NE(std::string(buf, static_cast<size_t>(n))
                  .find("400 Bad Request"),
              std::string::npos);
    ::close(fd);
}

TEST(AdminServer, ConcurrentScrapersAllGetAnswers)
{
    MetricsRegistry metrics;
    metrics.counter("service.requests").inc(1);
    AdminHooks hooks;
    hooks.metrics = &metrics;
    AdminServer server(hooks, 0);

    constexpr int kClients = 8;
    std::vector<std::thread> clients;
    std::atomic<int> ok{0};
    for (int i = 0; i < kClients; ++i)
        clients.emplace_back([&server, &ok] {
            std::string response = httpGet(server.port(), "/metrics");
            if (response.find("200 OK") != std::string::npos)
                ok.fetch_add(1);
        });
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(ok.load(), kClients);
}
