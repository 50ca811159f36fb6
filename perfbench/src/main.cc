/**
 * @file
 * The uovd benchmark driver.
 *
 *     perfbench_driver --workload W --seed N --seconds S --trace 0|1
 *                      --workdir DIR
 *
 * Runs one workload as a closed loop with one client against the
 * public entry points of src/service (parseRequestLine, then
 * runRequest on a shared QueryService), checks every answer, and
 * prints notes followed by one JSON result line.  --trace 1 runs the
 * separate traced run (traced.cc) and reports per-layer metrics
 * instead.  DIR holds the run's stores and JIT object caches.
 */

#include <cmath>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>

#include "bench.h"
#include "codegen/jit.h"
#include "support/logging.h"

namespace perfbench {

using namespace uov;
using namespace uov::service;

namespace {

/** Set-ups per run; setup_s is their median. */
constexpr int kSolveSetups = 5;
constexpr int kKernelSetups = 3;

/** Fewest timed passes: each request's cost is its best over them. */
constexpr size_t kMinPasses = 3;

/**
 * Latencies of identical passes.  A request's cost is its fastest
 * pass (best-of-N, the rule runNativeRequest times kernels by): host
 * noise only ever adds time, so a burst during one pass moves nothing.
 * qps and the latency quantiles are taken over these costs.
 */
class PassLatencies
{
  public:
    void
    add(const std::vector<double> &pass_ms)
    {
        _best.resize(pass_ms.size(), std::numeric_limits<double>::max());
        for (size_t i = 0; i < pass_ms.size(); ++i)
            _best[i] = std::min(_best[i], pass_ms[i]);
        ++_passes;
    }

    const std::vector<double> &best() const { return _best; }
    size_t passes() const { return _passes; }

  private:
    std::vector<double> _best;
    size_t _passes = 0;
};

/** Check every response of a pass; returns the degraded count. */
uint64_t
checkPass(Outcome &out, Checker &checker,
          const std::vector<std::string> &lines,
          const std::vector<std::string> &responses)
{
    uint64_t degraded = 0;
    for (size_t i = 0; i < lines.size(); ++i) {
        ++out.attempted;
        std::string verdict = checker.check(lines[i], responses[i]);
        if (!verdict.empty())
            out.fail(verdict);
        else if (responses[i].find(" degraded=") != std::string::npos)
            ++degraded;
    }
    return degraded;
}

/**
 * The end-to-end metrics of a run.  @p degraded counts degraded
 * answers in one pass of @p pass_size requests (every pass answers
 * alike); @p rss_mib is the peak RSS at the end of the first pass.
 */
void
report(Outcome &out, const PassLatencies &latency, double tail_q,
       uint64_t degraded, size_t pass_size,
       const std::vector<double> &setups, double rss_mib)
{
    const std::vector<double> &cost = latency.best();
    double total_s = 0;
    for (double ms : cost)
        total_s += ms / 1e3;
    double n = static_cast<double>(cost.size());
    out.metrics.push_back({"qps", n / total_s, "req/s"});
    out.metrics.push_back({"latency_p50_ms", quantile(cost, 0.5), "ms"});
    out.metrics.push_back(
        {"latency_tail_ms", quantile(cost, tail_q), "ms"});
    out.metrics.push_back({"optimal_ratio",
                           1 - static_cast<double>(degraded) /
                                   static_cast<double>(pass_size),
                           "frac"});
    out.metrics.push_back({"setup_s", median(setups), "s"});
    out.metrics.push_back({"peak_rss_mb", rss_mib, "MiB"});

    std::ostringstream oss;
    oss << "latency_tail_ms is latency_p"
        << static_cast<int>(std::lround(tail_q * 100)) << "_ms; qps and "
        << "latency quantiles are over " << cost.size()
        << " requests, each the fastest of its " << latency.passes()
        << " passes (" << cost.size() * latency.passes() << " samples)";
    out.notes.push_back(oss.str());
    oss.str("");
    oss << "error_rate "
        << static_cast<double>(out.failed) /
               static_cast<double>(out.attempted)
        << " frac (" << out.failed
        << " of " << out.attempted << "); setup_s is the median of "
        << setups.size() << " set-ups";
    out.notes.push_back(oss.str());
}

/** Untimed warm-up: solve a fixed set of queries. */
void
warmUpSolver()
{
    MetricsRegistry metrics;
    auto service = makeService(metrics);
    for (const Query &q : solvePool(0x5eed, 32))
        runRequest(*service, parseRequestLine(renderLine(q), 1));
}

/**
 * cold-solve: every query asked twice against an empty cache and an
 * empty on-disk store.  A pass is the whole stream from a fresh
 * service.
 */
Outcome
runColdSolve(const Options &opt)
{
    Outcome out;
    std::vector<double> setups;
    std::vector<std::string> lines;
    std::unique_ptr<MetricsRegistry> metrics;
    std::unique_ptr<QueryService> service;
    fs::path store;
    int generation = 0;
    auto freshService = [&] {
        service.reset();
        fs::remove(store);
        store = opt.workdir / ("cold-" + std::to_string(generation++) +
                               ".store");
        metrics = std::make_unique<MetricsRegistry>();
        service = makeService(*metrics, store);
    };
    for (int k = 0; k < kSolveSetups; ++k) {
        auto t0 = Clock::now();
        lines = coldLines(solvePool(opt.seed, kSolvePool), opt.seed);
        freshService();
        warmUpSolver();
        setups.push_back(secondsSince(t0));
    }

    Checker checker;
    PassLatencies latency;
    std::vector<std::string> responses;
    double elapsed = 0, rss = 0;
    uint64_t degraded = 0;
    for (size_t pass = 0; pass < kMinPasses || elapsed < opt.seconds;
         ++pass) {
        if (pass > 0)
            freshService();
        std::vector<double> ms;
        elapsed += runPass(*service, lines, ms, responses);
        latency.add(ms);
        if (pass == 0)
            rss = peakRssMiB();
        degraded = checkPass(out, checker, lines, responses);
        auto *st = service->store();
        if (st == nullptr ||
            st->stats().appends != service->searchesExecuted())
            out.fail("store did not take one append per search");
        if (pass == 0)
            out.notes.push_back(
                "cold-solve: " +
                std::to_string(service->searchesExecuted()) +
                " searches per pass of " + std::to_string(lines.size()) +
                " requests");
    }
    report(out, latency, 0.99, degraded, lines.size(), setups, rss);
    return out;
}

/**
 * warm-restart: an untimed pass writes the store; each set-up opens,
 * validates and preloads it into a fresh service; then the shuffled,
 * padded presentations replay with zero searches.
 */
Outcome
runWarmRestart(const Options &opt)
{
    Outcome out;
    Checker checker;
    std::vector<Query> pool = solvePool(opt.seed, kSolvePool);
    fs::path store = opt.workdir / "warm.store";
    std::vector<std::string> reference(pool.size());
    uint64_t records = 0;
    {
        MetricsRegistry metrics;
        auto writer = makeService(metrics, store);
        for (size_t i = 0; i < pool.size(); ++i) {
            std::string line = renderLine(pool[i]);
            std::string response =
                runRequest(*writer, parseRequestLine(line, 1));
            std::string verdict = checker.check(line, response);
            if (!verdict.empty())
                out.fail("store pass: " + verdict);
            reference[i] = responseBody(response);
        }
        records = writer->searchesExecuted();
    }
    resetPeakRss();

    std::vector<double> setups;
    std::vector<std::string> lines;
    std::vector<size_t> origin;
    std::unique_ptr<MetricsRegistry> metrics;
    std::unique_ptr<QueryService> service;
    std::vector<std::string> responses;
    for (int k = 0; k < kSolveSetups; ++k) {
        auto t0 = Clock::now();
        lines = warmLines(pool, opt.seed, kWarmCopies, origin);
        service.reset();
        metrics = std::make_unique<MetricsRegistry>();
        service = makeService(*metrics, store);
        std::vector<std::string> head(lines.begin(),
                                      lines.begin() + pool.size());
        std::vector<double> ms;
        runPass(*service, head, ms, responses);
        setups.push_back(secondsSince(t0));
    }
    if (service->store() == nullptr ||
        service->store()->stats().records_loaded != records)
        out.fail("store did not preload one record per search");

    PassLatencies latency;
    double elapsed = 0, rss = 0;
    uint64_t degraded = 0;
    for (size_t pass = 0; pass < kMinPasses || elapsed < opt.seconds;
         ++pass) {
        std::vector<double> ms;
        elapsed += runPass(*service, lines, ms, responses);
        latency.add(ms);
        if (pass == 0)
            rss = peakRssMiB();
        for (size_t i = 0; i < lines.size(); ++i)
            if (responseBody(responses[i]) != reference[origin[i]])
                out.fail("'" + lines[i] + "' answered '" + responses[i] +
                         "', the store pass '" + reference[origin[i]] +
                         "'");
        // The first pass checks each presentation; later passes must
        // repeat the store pass's answers, compared above.
        if (pass == 0)
            degraded = checkPass(out, checker, lines, responses);
        else
            out.attempted += lines.size();
    }
    if (service->searchesExecuted() != 0)
        out.fail(std::to_string(service->searchesExecuted()) +
                 " searches ran after the restart");
    // p95, not p99: the p99 falls in a sparse stretch of the costs
    // (a few expensive canonicalizations), so its ratio to p50 moved by
    // 20% between seeds, while p95's moved by 4%.
    report(out, latency, 0.95, degraded, lines.size(), setups, rss);
    return out;
}

/**
 * native / tune: the pool's distinct kernels, each pass against its
 * own empty JIT object cache so every request pays for cc.
 */
Outcome
runKernels(const Options &opt, bool tune)
{
    Outcome out;
    std::string verb = tune ? "tune" : "native";
    MetricsRegistry metrics;
    auto service = makeService(metrics);
    std::vector<double> setups;
    std::vector<std::string> lines;
    std::vector<Query> pool;
    for (int k = 0; k < kKernelSetups; ++k) {
        auto t0 = Clock::now();
        pool = tune ? tunePool(opt.seed) : nativePool(opt.seed);
        lines.clear();
        for (const Query &q : pool)
            lines.push_back(renderLine(q));
        freshJitCache(opt.workdir / ("jit-setup-" + std::to_string(k)));
        if (!JitCompiler::hostCompilerAvailable()) {
            out.fail("no host C compiler");
            return out;
        }
        std::string warm = runRequest(
            *service, parseRequestLine(renderLine(warmupQuery(verb)), 1));
        if (warm.find(" verified=ok") == std::string::npos)
            out.fail("warm-up: " + warm);
        setups.push_back(secondsSince(t0));
    }

    Checker checker;
    PassLatencies latency;
    std::vector<double> ns_per_point;
    std::vector<std::string> responses;
    double elapsed = 0, rss = 0;
    uint64_t degraded = 0, compiles = 0;
    for (size_t pass = 0; pass < kMinPasses || elapsed < opt.seconds;
         ++pass) {
        fs::path dir = opt.workdir / ("jit-pass-" + std::to_string(pass));
        fs::path cache = freshJitCache(dir);
        std::vector<double> ms;
        elapsed += runPass(*service, lines, ms, responses);
        latency.add(ms);
        if (pass == 0)
            rss = peakRssMiB();
        size_t objects = countSharedObjects(cache);
        compiles += objects;
        // Native compiles exactly lex + rtile per request; tune at
        // least its lex baseline.  Fewer means a warm cache was hit.
        if (tune ? objects < lines.size() : objects != 2 * lines.size())
            out.fail(std::to_string(objects) + " compiles for " +
                     std::to_string(lines.size()) + " requests");
        fs::remove_all(dir);
        degraded = checkPass(out, checker, lines, responses);
        for (size_t i = 0; i < lines.size(); ++i) {
            double ns = fieldValue(responses[i],
                                   tune ? "best_ns" : "rtile_ns");
            if (ns > 0)
                ns_per_point.push_back(
                    ns / static_cast<double>(pool[i].points()));
        }
    }
    report(out, latency, 0.90, degraded, lines.size(), setups, rss);
    std::ostringstream oss;
    oss << "kernel_ns_per_point " << median(ns_per_point) << " ns ("
        << (tune ? "best_ns" : "rtile_ns") << " over box points, median of "
        << ns_per_point.size() << "); codegen.jit.compiles " << compiles
        << " over " << latency.passes() << " passes";
    out.notes.push_back(oss.str());
    return out;
}

int
usage(const char *why)
{
    std::cerr << "perfbench_driver: " << why
              << "\nusage: perfbench_driver --workload "
                 "cold-solve|warm-restart|native|tune --seed N "
                 "--seconds S --trace 0|1 --workdir DIR\n";
    return 2;
}

} // namespace

Outcome
runTimed(const Options &opt)
{
    if (opt.workload == "cold-solve")
        return runColdSolve(opt);
    if (opt.workload == "warm-restart")
        return runWarmRestart(opt);
    return runKernels(opt, opt.workload == "tune");
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    std::string trace = "0";
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i], value = argv[i + 1];
        if (flag == "--workload")
            opt.workload = value;
        else if (flag == "--seed")
            opt.seed = std::stoull(value);
        else if (flag == "--seconds")
            opt.seconds = std::stod(value);
        else if (flag == "--trace")
            trace = value;
        else if (flag == "--workdir")
            opt.workdir = value;
        else
            return usage(("unknown flag " + flag).c_str());
    }
    if (opt.workload != "cold-solve" && opt.workload != "warm-restart" &&
        opt.workload != "native" && opt.workload != "tune")
        return usage("unknown workload");
    if (opt.workdir.empty() || (trace != "0" && trace != "1"))
        return usage("--workdir and --trace 0|1 are required");
    opt.trace = trace == "1";
    fs::create_directories(opt.workdir);
    uov::Logger::instance().level(uov::LogLevel::Warn);

    Outcome out = opt.trace ? runTraced(opt) : runTimed(opt);

    for (const std::string &note : out.notes)
        std::cout << "# " << note << "\n";
    std::cout << std::setprecision(17) << "{\"correct\": "
              << (out.correct ? "true" : "false")
              << ", \"attempted\": " << out.attempted
              << ", \"failed\": " << out.failed << ", \"metrics\": {";
    for (size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        std::cout << (i ? ", " : "") << "\"" << m.name
                  << "\": {\"value\": " << m.value << ", \"unit\": \""
                  << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return out.correct ? 0 : 1;
}
