/**
 * @file
 * Shared pieces of the benchmark driver: run options, metric records,
 * percentiles, the service set-up every workload uses, the timed
 * request loop, and the answer checks that do not trust the search.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/executor.h"
#include "service/service.h"
#include "workload.h"

namespace perfbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/**
 * Node budget of every shortest/storage search.  A budget, not a
 * deadline, so which answers degrade is a pure function of the code.
 */
constexpr uint64_t kNodeBudget = 1000;

/** Distinct queries in the cold-solve / warm-restart pool. */
constexpr size_t kSolvePool = 1600;

/** Presentations of each pool query in the warm-restart stream. */
constexpr size_t kWarmCopies = 8;

/** Timed-run options, straight from the command line. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    fs::path workdir; ///< scratch space for stores and JIT caches
};

/** One named metric value. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What a run reports: the result line plus human-readable notes. */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool correct = true;
    std::vector<Metric> metrics;
    std::vector<std::string> notes; ///< printed before the result line

    void fail(const std::string &why);
};

double secondsSince(Clock::time_point t0);

/** Linear-interpolated quantile, @p q in [0, 1]; 0 when empty. */
double quantile(std::vector<double> v, double q);
double median(const std::vector<double> &v);

/** Peak resident set of this process (VmHWM), MiB. */
double peakRssMiB();

/**
 * Return freed heap to the system and restart the peak-RSS count
 * (Linux clear_refs "5"), so untimed preparation stays out of it.
 */
void resetPeakRss();

/** The service every solve workload runs: node budget, optional store. */
std::unique_ptr<uov::service::QueryService>
makeService(uov::service::MetricsRegistry &metrics,
            const fs::path &store = {});

/**
 * Point the default JitCompiler at an empty object cache: the cache
 * lives under $TMPDIR, which this sets to a fresh @p dir.  Returns the
 * cache directory JitCompiler will use.
 */
fs::path freshJitCache(const fs::path &dir);

/** Shared objects in a JIT cache directory: one per compile. */
size_t countSharedObjects(const fs::path &cache);

/**
 * Closed loop, one client: parseRequestLine then runRequest for every
 * line, on the next allowed CPU in turn (the whole pass on one CPU).
 * Appends each request's latency (ms) and returns the loop's wall time
 * in seconds.
 */
double runPass(uov::service::QueryService &service,
               const std::vector<std::string> &lines,
               std::vector<double> &latency_ms,
               std::vector<std::string> &responses);

/** Response text after "answer <idx> " (or "error <idx> "). */
std::string responseBody(const std::string &response);

/** The response up to its first wall-clock ("..._ns=") field. */
std::string deterministicPrefix(const std::string &response);

/** Value of " <key>=" in @p response as a double; -1 when absent. */
double fieldValue(const std::string &response, const std::string &key);

/**
 * Answer checks that do not rely on the search: a solve answer's
 * vector is re-checked with the exact membership oracle over the
 * stencil *as presented*, and its objective recomputed from the vector
 * and the box; native and tune answers must carry verified=ok and a
 * UOV the oracle accepts.  Checks are memoized per request line, and a
 * line answered twice must get the same answer body both times.
 */
class Checker
{
  public:
    /** "" when @p response is a correct answer to @p line. */
    std::string check(const std::string &line,
                      const std::string &response);

  private:
    std::string checkSolve(const uov::service::Request &request,
                           const std::string &body);
    std::string checkKernel(const uov::service::Request &request,
                            const std::string &body);

    std::unordered_map<std::string, std::string> _bodies;
};

/** Every timed workload; trace mode lives in traced.cc. */
Outcome runTimed(const Options &opt);
Outcome runTraced(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
