/**
 * @file
 * uovd: the UOV query service driver.
 *
 * Reads newline-delimited queries (see src/service/executor.h for the
 * protocol) from stdin or a file, answers them concurrently through
 * the canonicalizing, caching QueryService, and writes responses in
 * request order -- byte-identical to a single-threaded direct
 * core/search run, at any thread count and cache size.
 *
 *   $ echo 'query shortest deps [1,0] [0,1] [1,1]' | ./uovd
 *   answer 1 best=(1, 1) value=2 initial=4 canon=3 cert=...
 *
 *   $ echo 'query native bounds 0..17 0..99 deps [1,-1] [1,0] [1,1]' \
 *       | ./uovd
 *   answer 1 native uov=(2, 0) cells=... interp_ns=... lex_ns=...
 *
 * 'query native' JIT-compiles the OV-mapped kernel with the host C
 * compiler, verifies it bit-exactly against the interpreter, and
 * reports interpreter-vs-native timings; timing fields are wall-clock
 * and exempt from the byte-determinism contract.
 *
 *   $ ./uovd --input queries.txt --threads 8 --metrics -
 *   $ ./uovd --nest examples/corpus/stencil5.nest
 *
 * --nest FILE converts a nest description (driver/nest_parser format)
 * into one shortest and one storage query over its statement-0
 * stencil and bounds, so existing corpora exercise the service path.
 * An unreadable or unparsable nest file becomes an error response
 * line, like any other bad request; the batch keeps going.
 *
 * Exit status: 0 when at least one request was answered, 1 when every
 * request in a non-empty batch drew an error line, 2 on usage
 * problems.
 */

#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dependence.h"
#include "driver/nest_parser.h"
#include "driver/service_config.h"
#include "service/executor.h"
#include "support/error.h"
#include "support/logging.h"
#include "support/trace.h"
#include "support/version.h"
#include "telemetry/admin_server.h"
#include "telemetry/prometheus.h"
#include "telemetry/trace_context.h"

using namespace uov;
using namespace uov::service;

namespace {

/** Statement-0 stencil + nest bounds, as protocol request objects. */
std::vector<Request>
requestsFromNest(const LoopNest &nest, size_t &next_index,
                 int64_t deadline_ms)
{
    Stencil stencil = extractStencil(nest, 0);
    Request shortest;
    shortest.index = ++next_index;
    shortest.objective = SearchObjective::ShortestVector;
    shortest.deps = stencil.deps();
    shortest.deadline_ms = deadline_ms;

    Request storage;
    storage.index = ++next_index;
    storage.objective = SearchObjective::BoundedStorage;
    storage.deps = stencil.deps();
    storage.isg_lo = nest.lo();
    storage.isg_hi = nest.hi();
    storage.deadline_ms = deadline_ms;
    return {shortest, storage};
}

} // namespace

int
main(int argc, char **argv)
{
    ServiceConfig config;
    if (std::optional<int> rc = serviceFlags(config).run(argc, argv))
        return *rc;
    if (config.version) {
        std::cout << "uovd " << buildVersion() << "\n";
        return 0;
    }
    Logger::instance().setJsonMode(config.log_json);
    Logger::instance().level(config.log_level);

    if (!config.trace_path.empty()) {
        trace::Tracer::setCurrentThreadName("uovd-main");
        trace::Tracer::instance().enable();
    }

    // Gather requests: nests first, then the query stream (skipped
    // when only nests were given and no explicit --input).
    std::vector<Request> requests;
    size_t next_index = 0;
    for (const auto &path : config.nest_paths) {
        // A bad nest file is one failed request, not a dead batch:
        // it degrades to the same per-line error protocol malformed
        // query lines use.
        auto nest_error = [&](const std::string &message) {
            Request failed;
            failed.index = ++next_index;
            failed.error = "nest '" + path + "': " + message;
            requests.push_back(std::move(failed));
        };
        std::ifstream in(path);
        if (!in) {
            nest_error("cannot open file");
            continue;
        }
        try {
            LoopNest nest = parseNest(in);
            auto reqs = requestsFromNest(nest, next_index,
                                         config.request_deadline_ms);
            requests.insert(requests.end(), reqs.begin(), reqs.end());
        } catch (const UovError &e) {
            nest_error(e.what());
        }
    }
    if (config.nest_paths.empty() || !config.input_path.empty()) {
        std::ifstream file;
        std::istream *in = &std::cin;
        if (!config.input_path.empty() && config.input_path != "-") {
            file.open(config.input_path);
            if (!file) {
                std::cerr << "uovd: cannot open input '"
                          << config.input_path << "'\n";
                return 2;
            }
            in = &file;
        }
        std::vector<Request> parsed =
            parseRequests(*in, config.request_deadline_ms);
        for (Request &r : parsed) {
            r.index = ++next_index;
            requests.push_back(std::move(r));
        }
    }

    MetricsRegistry metrics;
    QueryService svc(config.service, metrics);
    ThreadPool pool(config.threads);
    std::unique_ptr<AdmissionController> admission;
    if (config.admission.high_water > 0)
        admission = std::make_unique<AdmissionController>(
            config.admission, metrics);

    // The live telemetry plane: the flight recorder and request trace
    // scopes are armed by --admin-port or --trace-ids; the admin socket
    // itself only by --admin-port.
    bool plane_armed = config.admin_port >= 0 || config.trace_ids;
    std::unique_ptr<telemetry::FlightRecorder> flight;
    std::unique_ptr<telemetry::AdminServer> admin;
    TelemetryPlane plane;
    if (plane_armed) {
        telemetry::installLoggerTraceIds();
        flight = std::make_unique<telemetry::FlightRecorder>(
            config.flight_size);
        plane.flight = flight.get();
        plane.trace_ids = config.trace_ids;
    }
    if (config.admin_port >= 0) {
        telemetry::AdminHooks hooks;
        hooks.metrics = &metrics;
        hooks.flight = flight.get();
        bool store_configured = !config.service.store_path.empty();
        hooks.health = [&svc, &metrics, adm = admission.get(),
                        store_configured,
                        high_water = config.admission.high_water] {
            telemetry::HealthStatus h;
            h.store_configured = store_configured;
            h.store_ok = svc.store() != nullptr;
            h.shed_active = adm != nullptr && adm->shedding();
            h.queue_depth =
                metrics.gauge("service.queue_depth").value();
            h.shed_high_water = high_water;
            return h;
        };
        try {
            admin = std::make_unique<telemetry::AdminServer>(
                std::move(hooks), static_cast<uint16_t>(config.admin_port));
        } catch (const UovError &e) {
            std::cerr << "uovd: " << e.what() << "\n";
            return 2;
        }
        std::cerr << "uovd: admin plane on 127.0.0.1:"
                  << admin->port() << "\n";
        if (!config.admin_port_file.empty()) {
            std::ofstream pf(config.admin_port_file);
            if (!pf) {
                std::cerr << "uovd: cannot open admin port file '"
                          << config.admin_port_file << "'\n";
                return 2;
            }
            pf << admin->port() << "\n";
        }
    }

    std::vector<std::string> responses;
    try {
        responses = runBatch(svc, requests, pool, admission.get(),
                             plane_armed ? &plane : nullptr);
    } catch (const UovError &e) {
        std::cerr << "uovd: " << e.what() << "\n";
        return 2;
    }

    if (!config.trace_path.empty()) {
        // Disabling before export also tells a UOV_TRACE env session
        // (support/trace static teardown) that this trace was already
        // written; workers are idle once runBatch returned.
        trace::Tracer &tracer = trace::Tracer::instance();
        tracer.disable();
        std::string trace_error;
        if (!tracer.exportToFile(config.trace_path, &trace_error)) {
            std::cerr << "uovd: " << trace_error << "\n";
            return 2;
        }
        tracer.summaryTable().print(std::cerr);
    }

    std::ofstream out_file;
    std::ostream *out = &std::cout;
    if (!config.output_path.empty() && config.output_path != "-") {
        out_file.open(config.output_path);
        if (!out_file) {
            std::cerr << "uovd: cannot open output '"
                      << config.output_path << "'\n";
            return 2;
        }
        out = &out_file;
    }
    for (const auto &line : responses)
        *out << line << "\n";
    out->flush();

    // --admin-hold: the batch is answered and flushed; keep the admin
    // plane up so scrapers and dashboards can inspect the run, until
    // a GET /quitquitquit lets the process exit.
    if (admin != nullptr && config.admin_hold) {
        std::cerr << "uovd: holding; GET /quitquitquit on the admin "
                     "port to exit\n";
        admin->waitQuit();
    }

    if (!config.metrics_path.empty()) {
        std::string body = telemetry::renderPrometheus(metrics);
        if (config.metrics_path == "-") {
            std::cerr << body;
        } else {
            std::ofstream mf(config.metrics_path);
            if (!mf) {
                std::cerr << "uovd: cannot open metrics output '"
                          << config.metrics_path << "'\n";
                return 2;
            }
            mf << body;
        }
    }
    // Partial failure is success: only an all-error batch exits
    // nonzero.  runBatch counts each response's typed outcome once.
    uint64_t errors = metrics.counter("service.request_errors").value();
    return !requests.empty() && errors == requests.size() ? 1 : 0;
}
