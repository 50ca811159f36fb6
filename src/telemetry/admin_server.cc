#include "telemetry/admin_server.h"

#include <cerrno>
#include <cstring>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "support/error.h"
#include "support/lex.h"
#include "telemetry/prometheus.h"

namespace uov {
namespace telemetry {

namespace {

std::string
httpResponse(int status, const char *reason, const char *content_type,
             const std::string &body)
{
    std::ostringstream oss;
    oss << "HTTP/1.0 " << status << " " << reason << "\r\n"
        << "Content-Type: " << content_type << "\r\n"
        << "Content-Length: " << body.size() << "\r\n"
        << "Connection: close\r\n\r\n"
        << body;
    return oss.str();
}

void
closeFd(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

} // namespace

std::string
HealthStatus::json() const
{
    std::ostringstream oss;
    oss << "{\"ready\":" << (ready() ? "true" : "false")
        << ",\"store\":{\"configured\":"
        << (store_configured ? "true" : "false")
        << ",\"ok\":" << (store_ok ? "true" : "false")
        << "},\"shed_active\":" << (shed_active ? "true" : "false")
        << ",\"queue_depth\":" << queue_depth
        << ",\"shed_high_water\":" << shed_high_water << "}";
    return oss.str();
}

AdminServer::AdminServer(AdminHooks hooks, uint16_t port)
    : _hooks(std::move(hooks))
{
    _listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    UOV_REQUIRE(_listen_fd >= 0,
                "admin: socket() failed: " << std::strerror(errno));
    int one = 1;
    ::setsockopt(_listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(_listen_fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        int err = errno;
        closeFd(_listen_fd);
        UOV_REQUIRE(false, "admin: cannot bind 127.0.0.1:"
                               << port << ": " << std::strerror(err));
    }
    if (::listen(_listen_fd, 16) != 0) {
        int err = errno;
        closeFd(_listen_fd);
        UOV_REQUIRE(false, "admin: listen failed: "
                               << std::strerror(err));
    }
    socklen_t len = sizeof(addr);
    ::getsockname(_listen_fd, reinterpret_cast<sockaddr *>(&addr),
                  &len);
    _port = ntohs(addr.sin_port);

    if (::pipe(_wake_fds) != 0) {
        int err = errno;
        closeFd(_listen_fd);
        UOV_REQUIRE(false,
                    "admin: pipe failed: " << std::strerror(err));
    }
    _thread = std::thread([this] { serveLoop(); });
}

AdminServer::~AdminServer()
{
    stop();
}

uint64_t
AdminServer::requestsServed() const
{
    return _served.load(std::memory_order_relaxed);
}

bool
AdminServer::quitRequested() const
{
    return _quit.load(std::memory_order_acquire);
}

void
AdminServer::waitQuit()
{
    std::unique_lock<std::mutex> lock(_quit_mutex);
    _quit_cv.wait(lock, [this] {
        return _quit.load(std::memory_order_acquire) ||
               _stop.load(std::memory_order_acquire);
    });
}

void
AdminServer::stop()
{
    bool expected = false;
    if (_stop.compare_exchange_strong(expected, true)) {
        // Wake the poll() so the loop observes _stop promptly.
        char b = 'q';
        (void)!::write(_wake_fds[1], &b, 1);
    }
    {
        std::lock_guard<std::mutex> lock(_quit_mutex);
    }
    _quit_cv.notify_all();
    if (_thread.joinable())
        _thread.join();
    closeFd(_listen_fd);
    closeFd(_wake_fds[0]);
    closeFd(_wake_fds[1]);
}

std::string
AdminServer::handle(const std::string &method, const std::string &path)
{
    _served.fetch_add(1, std::memory_order_relaxed);
    if (method != "GET")
        return httpResponse(405, "Method Not Allowed", "text/plain",
                            "only GET is served here\n");

    // Strip a query string: pollers append cache busters.
    std::string p = path.substr(0, path.find('?'));

    if (p == "/metrics") {
        std::string body = _hooks.metrics != nullptr
                               ? renderPrometheus(*_hooks.metrics)
                               : std::string();
        return httpResponse(200, "OK", prometheusContentType(), body);
    }
    if (p == "/healthz") {
        HealthStatus h =
            _hooks.health ? _hooks.health() : HealthStatus{};
        return httpResponse(200, "OK", "application/json",
                            h.json() + "\n");
    }
    if (p == "/readyz") {
        HealthStatus h =
            _hooks.health ? _hooks.health() : HealthStatus{};
        bool ready = h.ready();
        return httpResponse(ready ? 200 : 503,
                            ready ? "OK" : "Service Unavailable",
                            "application/json", h.json() + "\n");
    }
    if (p == "/flight") {
        std::string body = _hooks.flight != nullptr
                               ? _hooks.flight->json()
                               : std::string("{\"enabled\":false}");
        return httpResponse(200, "OK", "application/json", body + "\n");
    }
    if (p == "/quitquitquit") {
        _quit.store(true, std::memory_order_release);
        {
            std::lock_guard<std::mutex> lock(_quit_mutex);
        }
        _quit_cv.notify_all();
        return httpResponse(200, "OK", "text/plain", "bye\n");
    }
    return httpResponse(
        404, "Not Found", "text/plain",
        "no such endpoint; try /metrics /healthz /readyz /flight "
        "/quitquitquit\n");
}

void
AdminServer::serveLoop()
{
    while (!_stop.load(std::memory_order_acquire)) {
        pollfd fds[2];
        fds[0].fd = _listen_fd;
        fds[0].events = POLLIN;
        fds[1].fd = _wake_fds[0];
        fds[1].events = POLLIN;
        int rc = ::poll(fds, 2, 1000);
        if (rc <= 0)
            continue;
        if ((fds[1].revents & POLLIN) != 0)
            continue; // woken for shutdown; loop re-checks _stop
        if ((fds[0].revents & POLLIN) == 0)
            continue;

        int conn = ::accept(_listen_fd, nullptr, nullptr);
        if (conn < 0)
            continue;
        timeval tv{2, 0}; // a stalled client cannot wedge the plane
        ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        ::setsockopt(conn, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

        // Read until the end of the request head (or 4 KiB: admin
        // requests are one line plus a few headers).
        std::string head;
        char buf[1024];
        while (head.size() < 4096 &&
               head.find("\r\n\r\n") == std::string::npos &&
               head.find("\n\n") == std::string::npos) {
            ssize_t n = ::recv(conn, buf, sizeof(buf), 0);
            if (n <= 0)
                break;
            head.append(buf, static_cast<size_t>(n));
        }
        std::string_view method, path;
        Tokens request_line(head);
        std::string response =
            !request_line.next(method) || !request_line.next(path)
                ? httpResponse(400, "Bad Request", "text/plain",
                               "malformed request line\n")
                : handle(std::string(method), std::string(path));
        size_t off = 0;
        while (off < response.size()) {
            ssize_t n = ::send(conn, response.data() + off,
                               response.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                break;
            off += static_cast<size_t>(n);
        }
        ::close(conn);
    }
}

} // namespace telemetry
} // namespace uov
