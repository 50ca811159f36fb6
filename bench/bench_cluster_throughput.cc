/**
 * @file
 * Cluster-serving drill for uovd: durability and overload behaviour
 * under a replayable high-volume workload, with tail latency from the
 * service's own metrics histograms.
 *
 * Three regimes over the same seeded workload (fuzz::makeWorkload):
 *
 *  - cold: a fresh service with an empty result store solves the
 *    batch and persists every answer.
 *  - warm restart: a *new* service process-equivalent (fresh cache,
 *    same store file) replays the identical batch.  Gate: byte-
 *    identical responses and zero branch-and-bound searches -- the
 *    whole corpus must come back from disk.
 *  - overload: the batch replayed at 4x the admission capacity with
 *    shedding armed.  Gate: zero hard errors -- every response is
 *    either optimal or a certified Degraded answer (the shed ov_o
 *    floor), never an error line.
 *
 * The bench exits nonzero when any gate fails, so CI can run it as a
 * smoke test (--quick).  Not a paper artifact -- this measures the
 * serving layer added on top of the reproduction (see DESIGN.md,
 * "Durability & overload").
 */

#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_common.h"
#include "fuzz/workload.h"
#include "service/executor.h"

using namespace uov;
using namespace uov::bench;
using namespace uov::service;

namespace {

struct RegimeResult
{
    std::vector<std::string> responses;
    double wall_ns = 0;
    uint64_t optimal = 0;
    uint64_t degraded = 0;
    uint64_t errors = 0;
    uint64_t shed = 0;
    uint64_t searches = 0;
    uint64_t p99_us = 0;
    uint64_t p999_us = 0;
};

RegimeResult
runRegime(const std::vector<Request> &workload,
          const ServiceOptions &so, unsigned threads,
          AdmissionController *admission, MetricsRegistry &metrics)
{
    QueryService svc(so, metrics);
    ThreadPool pool(threads);
    auto start = std::chrono::steady_clock::now();
    RegimeResult r;
    r.responses = runBatch(svc, workload, pool, admission);
    auto stop = std::chrono::steady_clock::now();
    r.wall_ns =
        std::chrono::duration<double, std::nano>(stop - start).count();
    r.optimal = metrics.counter("service.optimal").value();
    r.degraded = metrics.counter("service.degraded").value();
    r.errors = metrics.counter("service.request_errors").value();
    r.shed = metrics.counter("service.shed.responses").value();
    r.searches = svc.searchesExecuted();
    Histogram &latency = metrics.histogram("service.latency_us");
    r.p99_us = latency.percentile(0.99);
    r.p999_us = latency.percentile(0.999);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    std::cout << "# Cluster-serving drill: durable warm restart and "
                 "overload shedding (not a paper artifact)\n\n";

    const size_t requests = opt.quick ? 400 : 4000;
    const size_t distinct = opt.quick ? 8 : 32;
    const uint64_t kVisitCap = 50'000;
    const unsigned threads = 4;
    // "Capacity" for the overload regime: the admission high-water
    // mark.  The submit loop enqueues far faster than searches
    // complete, so a batch 4x this deep is guaranteed to cross it.
    const int64_t high_water =
        static_cast<int64_t>(requests / 4);

    fuzz::WorkloadOptions wopt;
    wopt.requests = requests;
    wopt.distinct = distinct;
    wopt.seed = 1998;
    std::vector<Request> workload = fuzz::makeWorkload(wopt);

    std::string store_path =
        (std::filesystem::temp_directory_path() /
         ("uov-bench-cluster-" +
          std::to_string(static_cast<long>(::getpid())) + ".store"))
            .string();
    ServiceOptions stored;
    stored.max_visits = kVisitCap;
    stored.store_path = store_path;

    Table t("Cluster serving, " + std::to_string(requests) +
            " requests over " + std::to_string(distinct) +
            " distinct queries, " + std::to_string(threads) +
            " threads");
    t.header({"Regime", "Wall ms", "QPS", "Optimal", "Degraded",
              "Errors", "Shed", "p99 us", "p999 us"});
    auto addRow = [&](const std::string &name, const RegimeResult &r) {
        t.addRow()
            .cell(name)
            .cell(r.wall_ns / 1e6)
            .cell(qps(r.responses.size(), r.wall_ns), 0)
            .cell(r.optimal)
            .cell(r.degraded)
            .cell(r.errors)
            .cell(r.shed)
            .cell(r.p99_us)
            .cell(r.p999_us);
    };

    int failures = 0;
    auto gate = [&](bool ok, const std::string &what) {
        if (!ok) {
            std::cerr << "GATE FAILED: " << what << "\n";
            ++failures;
        }
    };

    // Cold: empty store, every distinct query is a real search.
    RegimeResult cold;
    {
        MetricsRegistry metrics;
        cold = runRegime(workload, stored, threads, nullptr, metrics);
        addRow("cold", cold);
        gate(cold.errors == 0, "cold regime drew error lines");
    }

    // Warm restart: fresh service + cache, same store file.
    {
        MetricsRegistry metrics;
        RegimeResult warm =
            runRegime(workload, stored, threads, nullptr, metrics);
        addRow("warm-restart", warm);
        gate(warm.responses == cold.responses,
             "warm restart diverged from the cold run");
        gate(warm.searches == 0,
             "warm restart re-ran " + std::to_string(warm.searches) +
                 " searches");
    }

    // Overload: no store (worst case), 4x the admission capacity.
    {
        MetricsRegistry metrics;
        AdmissionOptions ao;
        ao.high_water = high_water;
        AdmissionController admission(ao, metrics);
        ServiceOptions storeless;
        storeless.max_visits = kVisitCap;
        RegimeResult over = runRegime(workload, storeless, threads,
                                      &admission, metrics);
        addRow("overload-4x", over);
        gate(over.errors == 0,
             "overload regime drew " + std::to_string(over.errors) +
                 " hard errors (must shed, not fail)");
        gate(over.optimal + over.degraded ==
                 static_cast<uint64_t>(workload.size()),
             "overload responses do not partition into "
             "optimal+degraded");
    }

    emit(t, opt);
    std::error_code ec;
    std::filesystem::remove(store_path, ec);
    if (failures)
        std::cerr << failures << " gate(s) failed\n";
    return failures ? 1 : 0;
}
