/**
 * @file
 * The admin socket: a minimal single-threaded HTTP/1.0 server on its
 * own thread, exposing the live telemetry plane of a running uovd.
 *
 * Endpoints (all GET, Connection: close):
 *
 *   /metrics        Prometheus text exposition of the shared
 *                   MetricsRegistry (scrape-consistent snapshots)
 *   /flight         the flight recorder's last-K request digests
 *   /quitquitquit   acknowledge and latch the quit flag the driver's
 *                   --admin-hold waits on (the idiomatic way to stop
 *                   a held daemon from a script)
 *
 * Design constraints, in order: (1) the admin plane must never
 * perturb the serving path -- handlers only *read* shared state
 * through snapshot APIs that were built to be scraped concurrently;
 * (2) no dependencies -- hand-rolled HTTP/1.0 over POSIX sockets,
 * bound to 127.0.0.1 only (an admin plane is not an internet
 * service); (3) simple lifecycle -- the constructor binds and
 * listens (throwing UovUserError on failure, with the ephemeral
 * port 0 resolving to the real port before the constructor returns),
 * the destructor joins.  One connection is served at a time; a stuck
 * client is bounded by a 2 s socket timeout, not by the daemon's
 * patience.
 */

#ifndef UOV_TELEMETRY_ADMIN_SERVER_H
#define UOV_TELEMETRY_ADMIN_SERVER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "support/metrics.h"
#include "telemetry/flight_recorder.h"

namespace uov {
namespace telemetry {

/** The shared state the endpoints render.  All pointers optional. */
struct AdminHooks
{
    const MetricsRegistry *metrics = nullptr;
    const FlightRecorder *flight = nullptr;
};

class AdminServer
{
  public:
    /**
     * Bind 127.0.0.1:@p port (0 = ephemeral), listen, and start the
     * serving thread.  @p hooks targets must outlive the server.
     *
     * @throws UovUserError when the socket cannot be bound.
     */
    AdminServer(AdminHooks hooks, uint16_t port);

    ~AdminServer();

    AdminServer(const AdminServer &) = delete;
    AdminServer &operator=(const AdminServer &) = delete;

    /** The bound port (the resolved one when constructed with 0). */
    uint16_t port() const { return _port; }

    /** Requests served so far (test introspection). */
    uint64_t requestsServed() const;

    /** Whether /quitquitquit has been received. */
    bool quitRequested() const;

    /** Block until /quitquitquit arrives or stop() is called. */
    void waitQuit();

    /** Stop serving and join the thread (idempotent). */
    void stop();

    /**
     * Dispatch one request path to its response (status line and
     * body) without any socket -- the unit-testable core of the
     * server; the socket loop calls exactly this.
     */
    std::string handle(const std::string &method,
                       const std::string &path);

  private:
    void serveLoop();

    AdminHooks _hooks;
    uint16_t _port = 0;
    int _listen_fd = -1;
    int _wake_fds[2] = {-1, -1}; ///< self-pipe to interrupt poll()
    std::atomic<uint64_t> _served{0};
    std::atomic<bool> _stop{false};
    std::atomic<bool> _quit{false};
    std::mutex _quit_mutex;
    std::condition_variable _quit_cv;
    std::thread _thread;
};

} // namespace telemetry
} // namespace uov

#endif // UOV_TELEMETRY_ADMIN_SERVER_H
