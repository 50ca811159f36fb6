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
 *   $ ./uovd --input queries.txt --threads 8 --metrics
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
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/dependence.h"
#include "driver/nest_parser.h"
#include "service/executor.h"
#include "support/error.h"
#include "support/logging.h"
#include "support/trace.h"
#include "support/version.h"
#include "telemetry/admin_server.h"
#include "telemetry/trace_context.h"

using namespace uov;
using namespace uov::service;

namespace {

void
usage(std::ostream &os)
{
    os <<
        "uovd " << buildVersion() << " -- UOV query service\n"
        "usage: uovd [options]\n"
        "  --input FILE      read queries from FILE (default: stdin)\n"
        "  --output FILE     write responses to FILE (default: stdout)\n"
        "  --nest FILE       add queries for a nest description\n"
        "                    (repeatable; runs before --input/stdin\n"
        "                    only when given, stdin is then skipped)\n"
        "  --threads N       worker threads (default: hardware)\n"
        "  --cache-bytes N   result cache budget (default 64 MiB)\n"
        "  --cache-shards N  cache stripe count (default 16)\n"
        "  --no-cache        disable the result cache\n"
        "  --max-visits N    branch-and-bound visit cap per query\n"
        "  --store FILE      persistent result store: append-only\n"
        "                    checksummed log, preloaded at startup so\n"
        "                    a restarted daemon answers its corpus\n"
        "                    with zero searches (torn tails truncated)\n"
        "  --shed-high N     shed load past N queued requests: answer\n"
        "                    with the certified ov_o floor\n"
        "                    (degraded=shed) instead of queueing\n"
        "                    (0 = disabled, the default)\n"
        "  --shed-low N      stop shedding once the queue drains to N\n"
        "                    (default: shed-high / 2; the hysteresis\n"
        "                    band)\n"
        "  --store-compact-every N  compact the store after every N\n"
        "                    acknowledged appends (0 = never)\n"
        "  --admin-port N    serve the admin plane on 127.0.0.1:N\n"
        "                    (/metrics /healthz /readyz /slo /flight\n"
        "                    /spans /quitquitquit; 0 = ephemeral, the\n"
        "                    bound port is printed to stderr)\n"
        "  --admin-port-file F  also write the bound port to F\n"
        "  --admin-hold      after answering the batch, keep serving\n"
        "                    the admin plane until GET /quitquitquit\n"
        "  --flight-size K   flight-recorder ring capacity\n"
        "                    (default 256 request digests)\n"
        "  --trace-ids       append ' trace_id=<16 hex>' to every\n"
        "                    response line (opt-in: the token is\n"
        "                    per-run unique, so it is exempt from the\n"
        "                    byte-determinism contract)\n"
        "  --slo-window-s N  SLO rolling window (default 60 s)\n"
        "  --slo-p50-us N    SLO latency targets in microseconds\n"
        "  --slo-p99-us N    (0 disables that percentile's target)\n"
        "  --slo-p999-us N\n"
        "  --slo-max-degraded R  SLO outcome-ratio ceilings in [0,1]\n"
        "  --slo-max-shed R      (negative disables that ceiling)\n"
        "  --slo-max-error R\n"
        "  --log-json        structured JSON log lines on stderr\n"
        "  --log-level L     error|warn|info|debug (default warn;\n"
        "                    info narrates request outcomes when the\n"
        "                    admin plane is armed)\n"
        "  --request-deadline-ms N  default per-request deadline\n"
        "                    (lines may override with 'deadline_ms N';\n"
        "                    -1 = unbounded, 0 = degrade immediately)\n"
        "  --metrics         dump the metrics table to stderr at exit\n"
        "  --metrics-json F  dump metrics as JSON to F ('-' = stderr)\n"
        "  --trace FILE      record a span trace of the batch and\n"
        "                    write Chrome trace-event JSON to FILE\n"
        "                    (open in Perfetto; summary on stderr;\n"
        "                    UOV_TRACE=FILE is the env equivalent)\n"
        "  --version         print the build version and exit\n";
}

/**
 * Parse a numeric flag value into @p out as one whole token that fits
 * its type: trailing junk is rejected (as the protocol's integers
 * are), and so is a negative count, instead of wrapping.  Throws
 * std::logic_error, which the flag loop reports as a bad value.
 */
template <typename T>
void
parseNumber(T &out, const std::string &tok)
{
    size_t used = 0;
    if constexpr (std::is_floating_point_v<T>) {
        out = std::stod(tok, &used);
    } else {
        long long v = std::stoll(tok, &used);
        if (!std::in_range<T>(v))
            throw std::out_of_range(tok);
        out = static_cast<T>(v);
    }
    if (used != tok.size())
        throw std::invalid_argument(tok);
}

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
    std::string input_path, output_path, metrics_json_path, trace_path;
    std::string admin_port_file;
    std::vector<std::string> nest_paths;
    unsigned threads = 0;
    bool dump_metrics = false;
    bool admin_hold = false;
    bool trace_ids = false;
    int64_t request_deadline_ms = -1;
    int64_t admin_port = -1; ///< -1 = no admin plane; 0 = ephemeral
    size_t flight_size = 256;
    ServiceOptions options;
    AdmissionOptions admission_options;
    telemetry::SloOptions slo_options;

    auto next_arg = [&](int &i, const char *flag) -> std::string {
        if (i + 1 >= argc) {
            std::cerr << "uovd: " << flag << " needs a value\n";
            exit(2);
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto number = [&](auto &out) {
            parseNumber(out, next_arg(i, a.c_str()));
        };
        try {
            if (a == "--help" || a == "-h") {
                usage(std::cout);
                return 0;
            } else if (a == "--version") {
                std::cout << "uovd " << buildVersion() << "\n";
                return 0;
            } else if (a == "--input") {
                input_path = next_arg(i, "--input");
            } else if (a == "--output") {
                output_path = next_arg(i, "--output");
            } else if (a == "--nest") {
                nest_paths.push_back(next_arg(i, "--nest"));
            } else if (a == "--threads") {
                number(threads);
            } else if (a == "--cache-bytes") {
                number(options.cache_bytes);
            } else if (a == "--cache-shards") {
                number(options.cache_shards);
            } else if (a == "--no-cache") {
                options.cache_bytes = 0;
            } else if (a == "--max-visits") {
                number(options.max_visits);
            } else if (a == "--store") {
                options.store_path = next_arg(i, "--store");
            } else if (a == "--shed-high") {
                number(admission_options.high_water);
            } else if (a == "--shed-low") {
                number(admission_options.low_water);
            } else if (a == "--request-deadline-ms") {
                number(request_deadline_ms);
            } else if (a == "--store-compact-every") {
                number(options.store_compact_every);
            } else if (a == "--admin-port") {
                number(admin_port);
                if (admin_port < 0 || admin_port > 65535) {
                    std::cerr << "uovd: --admin-port must be in "
                                 "[0, 65535]\n";
                    return 2;
                }
            } else if (a == "--admin-port-file") {
                admin_port_file = next_arg(i, "--admin-port-file");
            } else if (a == "--admin-hold") {
                admin_hold = true;
            } else if (a == "--flight-size") {
                number(flight_size);
            } else if (a == "--trace-ids") {
                trace_ids = true;
            } else if (a == "--slo-window-s") {
                number(slo_options.window_s);
            } else if (a == "--slo-p50-us") {
                number(slo_options.p50_us);
            } else if (a == "--slo-p99-us") {
                number(slo_options.p99_us);
            } else if (a == "--slo-p999-us") {
                number(slo_options.p999_us);
            } else if (a == "--slo-max-degraded") {
                number(slo_options.max_degraded);
            } else if (a == "--slo-max-shed") {
                number(slo_options.max_shed);
            } else if (a == "--slo-max-error") {
                number(slo_options.max_error);
            } else if (a == "--log-json") {
                Logger::instance().setJsonMode(true);
            } else if (a == "--log-level") {
                std::string lvl = next_arg(i, "--log-level");
                if (lvl == "error")
                    Logger::instance().level(LogLevel::Error);
                else if (lvl == "warn")
                    Logger::instance().level(LogLevel::Warn);
                else if (lvl == "info")
                    Logger::instance().level(LogLevel::Info);
                else if (lvl == "debug")
                    Logger::instance().level(LogLevel::Debug);
                else {
                    std::cerr << "uovd: bad --log-level '" << lvl
                              << "'\n";
                    return 2;
                }
            } else if (a == "--metrics") {
                dump_metrics = true;
            } else if (a == "--metrics-json") {
                metrics_json_path = next_arg(i, "--metrics-json");
            } else if (a == "--trace") {
                trace_path = next_arg(i, "--trace");
            } else {
                std::cerr << "uovd: unknown option '" << a << "'\n";
                usage(std::cerr);
                return 2;
            }
        } catch (const std::logic_error &) {
            std::cerr << "uovd: bad numeric value for " << a << "\n";
            return 2;
        }
    }

    if (!trace_path.empty()) {
        trace::Tracer::setCurrentThreadName("uovd-main");
        trace::Tracer::instance().enable();
    }

    // Gather requests: nests first, then the query stream (skipped
    // when only nests were given and no explicit --input).
    std::vector<Request> requests;
    size_t next_index = 0;
    for (const auto &path : nest_paths) {
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
                                         request_deadline_ms);
            requests.insert(requests.end(), reqs.begin(), reqs.end());
        } catch (const UovError &e) {
            nest_error(e.what());
        }
    }
    if (nest_paths.empty() || !input_path.empty()) {
        std::ifstream file;
        std::istream *in = &std::cin;
        if (!input_path.empty() && input_path != "-") {
            file.open(input_path);
            if (!file) {
                std::cerr << "uovd: cannot open input '" << input_path
                          << "'\n";
                return 2;
            }
            in = &file;
        }
        std::vector<Request> parsed =
            parseRequests(*in, request_deadline_ms);
        for (Request &r : parsed) {
            r.index = ++next_index;
            requests.push_back(std::move(r));
        }
    }

    MetricsRegistry metrics;
    QueryService svc(options, metrics);
    ThreadPool pool(threads);
    std::unique_ptr<AdmissionController> admission;
    if (admission_options.high_water > 0)
        admission = std::make_unique<AdmissionController>(
            admission_options, metrics);

    // The live telemetry plane: the flight recorder, SLO window, and
    // request trace scopes are armed by --admin-port or --trace-ids;
    // the admin socket itself only by --admin-port.
    bool plane_armed = admin_port >= 0 || trace_ids;
    std::unique_ptr<telemetry::FlightRecorder> flight;
    std::unique_ptr<telemetry::SloTracker> slo;
    std::unique_ptr<telemetry::AdminServer> admin;
    TelemetryPlane plane;
    if (plane_armed) {
        telemetry::installLoggerTraceIds();
        flight =
            std::make_unique<telemetry::FlightRecorder>(flight_size);
        slo = std::make_unique<telemetry::SloTracker>(slo_options);
        plane.flight = flight.get();
        plane.slo = slo.get();
        plane.trace_ids = trace_ids;
    }
    if (admin_port >= 0) {
        telemetry::AdminHooks hooks;
        hooks.metrics = &metrics;
        hooks.flight = flight.get();
        hooks.slo = slo.get();
        bool store_configured = !options.store_path.empty();
        hooks.health = [&svc, &metrics, adm = admission.get(),
                        store_configured,
                        high_water = admission_options.high_water] {
            telemetry::HealthStatus h;
            h.store_configured = store_configured;
            h.store_ok = svc.store() != nullptr;
            h.shed_active = adm != nullptr && adm->shedding();
            h.queue_depth =
                metrics.gauge("service.queue_depth").value();
            h.shed_high_water = high_water;
            h.ready =
                !h.shed_active && (!store_configured || h.store_ok);
            return h;
        };
        hooks.spans_json = [] {
            std::ostringstream oss;
            trace::Tracer::instance().writeChromeJson(oss);
            return oss.str();
        };
        try {
            admin = std::make_unique<telemetry::AdminServer>(
                std::move(hooks), static_cast<uint16_t>(admin_port));
        } catch (const UovError &e) {
            std::cerr << "uovd: " << e.what() << "\n";
            return 2;
        }
        std::cerr << "uovd: admin plane on 127.0.0.1:"
                  << admin->port() << "\n";
        if (!admin_port_file.empty()) {
            std::ofstream pf(admin_port_file);
            if (!pf) {
                std::cerr << "uovd: cannot open admin port file '"
                          << admin_port_file << "'\n";
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

    if (!trace_path.empty()) {
        // Disabling before export also tells a UOV_TRACE env session
        // (support/trace static teardown) that this trace was already
        // written; workers are idle once runBatch returned.
        trace::Tracer &tracer = trace::Tracer::instance();
        tracer.disable();
        std::string trace_error;
        if (!tracer.exportToFile(trace_path, &trace_error)) {
            std::cerr << "uovd: " << trace_error << "\n";
            return 2;
        }
        tracer.summaryTable().print(std::cerr);
    }

    std::ofstream out_file;
    std::ostream *out = &std::cout;
    if (!output_path.empty() && output_path != "-") {
        out_file.open(output_path);
        if (!out_file) {
            std::cerr << "uovd: cannot open output '" << output_path
                      << "'\n";
            return 2;
        }
        out = &out_file;
    }
    size_t error_lines = 0;
    for (const auto &line : responses) {
        *out << line << "\n";
        if (line.rfind("error ", 0) == 0)
            ++error_lines;
    }
    out->flush();

    // --admin-hold: the batch is answered and flushed; keep the admin
    // plane up so scrapers and dashboards can inspect the run, until
    // a GET /quitquitquit lets the process exit.
    if (admin != nullptr && admin_hold) {
        std::cerr << "uovd: holding; GET /quitquitquit on the admin "
                     "port to exit\n";
        admin->waitQuit();
    }

    if (dump_metrics)
        metrics.table().print(std::cerr);
    if (!metrics_json_path.empty()) {
        if (metrics_json_path == "-") {
            std::cerr << metrics.json() << "\n";
        } else {
            std::ofstream mf(metrics_json_path);
            if (!mf) {
                std::cerr << "uovd: cannot open metrics output '"
                          << metrics_json_path << "'\n";
                return 2;
            }
            mf << metrics.json() << "\n";
        }
    }
    // Partial failure is success: only an all-error batch (every
    // request drew an error line) exits nonzero.
    bool all_errored = !responses.empty() &&
                       error_lines == responses.size();
    return all_errored ? 1 : 0;
}
