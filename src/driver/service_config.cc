#include "driver/service_config.h"

#include "support/version.h"

namespace uov {
namespace service {

FlagTable
serviceFlags(ServiceConfig &c)
{
    auto assign = [](std::string &f) { return [&f](auto &v) { f = v; }; };
    auto enable = [](bool &f) { return [&f](auto &) { f = true; }; };
    // A number read as the bounds' type and kept in [lo, hi]: a port,
    // or a thread count, is one error line past its bound, never a
    // thread storm.
    auto within = [](const char *flag, auto &f, auto lo, auto hi) {
        return [flag, &f, lo, hi](const std::string &v) {
            decltype(lo) n{};
            if (!parseWholeNumber(v, n))
                throw std::invalid_argument(v);
            if (n < lo || n > hi)
                throw FlagError(std::string(flag) + " must be in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "]");
            f = n;
        };
    };
    FlagTable flags("uovd",
                    std::string("uovd ") + buildVersion() +
                        " -- UOV query service\nusage: uovd [options]\n",
                    20);
    flags.add("--input FILE", "read queries from FILE (default: stdin)",
              assign(c.input_path))
        .add("--output FILE", "write responses to FILE (default: stdout)",
             assign(c.output_path))
        .add("--nest FILE",
             "add queries for a nest description\n"
             "(repeatable; runs before --input/stdin\n"
             "only when given, stdin is then skipped)",
             [&c](const std::string &v) { c.nest_paths.push_back(v); })
        .add("--threads N", "worker threads (default: hardware)",
             within("--threads", c.threads, 0u, 1024u))
        .number("--cache-bytes N",
                "result cache budget (default 64 MiB;\n"
                "0 disables the cache)",
                c.service.cache_bytes)
        .number("--max-visits N", "branch-and-bound visit cap per query",
                c.service.max_visits)
        .add("--store FILE",
             "persistent result store: append-only\n"
             "checksummed log, preloaded at startup so\n"
             "a restarted daemon answers its corpus\n"
             "with zero searches (torn tails truncated)",
             assign(c.service.store_path))
        .number("--shed-high N",
                "shed load past N queued requests: answer\n"
                "with the certified ov_o floor\n"
                "(degraded=shed) instead of queueing\n"
                "(0 = disabled, the default)",
                c.admission.high_water)
        .add("--admin-port N",
             "serve the admin plane on 127.0.0.1:N\n"
             "(/metrics /flight\n"
             "/quitquitquit; 0 = ephemeral, the bound\n"
             "port is printed to stderr)",
             within("--admin-port", c.admin_port, int64_t{0},
                    int64_t{65535}))
        .add("--admin-port-file F", "also write the bound port to F",
             assign(c.admin_port_file))
        .add("--admin-hold",
             "after answering the batch, keep serving\n"
             "the admin plane until GET /quitquitquit",
             enable(c.admin_hold))
        .add("--trace-ids",
             "append ' trace_id=<16 hex>' to every\n"
             "response line (opt-in: the token is\n"
             "per-run unique, so it is exempt from the\n"
             "byte-determinism contract)",
             enable(c.trace_ids))
        .add("--log-json", "structured JSON log lines on stderr",
             enable(c.log_json))
        .add("--log-level L",
             "error|warn|info|debug (default warn;\n"
             "info narrates request outcomes when the\n"
             "admin plane is armed)",
             [&c](const std::string &v) {
                 for (LogLevel level : {LogLevel::Error, LogLevel::Warn,
                                        LogLevel::Info, LogLevel::Debug}) {
                     if (v == logLevelName(level)) {
                         c.log_level = level;
                         return;
                     }
                 }
                 throw FlagError("bad --log-level '" + v + "'");
             })
        .number("--request-deadline-ms N",
                "default per-request deadline\n"
                "(lines may override with 'deadline_ms N';\n"
                "-1 = unbounded, 0 = degrade immediately)",
                c.request_deadline_ms)
        .add("--metrics FILE",
             "at exit, write the /metrics text\n"
             "(Prometheus 0.0.4) to FILE ('-' = stderr)",
             assign(c.metrics_path))
        .add("--trace FILE",
             "record a span trace of the batch and\n"
             "write Chrome trace-event JSON to FILE\n"
             "(open in Perfetto; summary on stderr;\n"
             "UOV_TRACE=FILE is the env equivalent)",
             assign(c.trace_path))
        .add("--version", "print the build version and exit",
             enable(c.version));
    return flags;
}

} // namespace service
} // namespace uov
