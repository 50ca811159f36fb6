/**
 * @file
 * Query-service throughput: cold-cache vs warm-cache queries/second
 * across thread counts, on a duplicate-heavy workload drawn from the
 * fuzz generators.
 *
 * "Cold" answers a fresh batch against an empty cache (in-batch
 * duplicates still coalesce and hit -- that is the production shape);
 * "warm" replays the identical batch against the now-populated cache,
 * so every request is a pure lookup.  The warm/cold ratio is the
 * headline number: the service exists because an NP-complete search
 * answered once should never be paid for twice.
 *
 * Not a paper artifact -- this measures the serving layer added on
 * top of the reproduction (see DESIGN.md, "Query service").
 */

#include <algorithm>
#include <thread>

#include "bench_common.h"
#include "fuzz/workload.h"
#include "service/executor.h"

using namespace uov;
using namespace uov::bench;
using namespace uov::service;

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    std::cout << "# Query-service throughput: cold vs. warm result "
                 "cache (not a paper artifact)\n\n";

    const size_t requests = opt.quick ? 240 : 2000;
    const size_t distinct = opt.quick ? 6 : 24;
    const uint64_t kVisitCap = 50'000;
    fuzz::WorkloadOptions wopt;
    wopt.requests = requests;
    wopt.distinct = distinct;
    wopt.seed = 42;
    std::vector<Request> workload = fuzz::makeWorkload(wopt);

    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::vector<unsigned> thread_counts;
    for (unsigned n : {1u, 4u, hw})
        if (std::find(thread_counts.begin(), thread_counts.end(), n) ==
            thread_counts.end())
            thread_counts.push_back(n);

    Table t("Service throughput, " + std::to_string(requests) +
            " requests over " + std::to_string(distinct) +
            " distinct queries");
    t.header({"Threads", "Cold ms", "Cold QPS", "Warm ms", "Warm QPS",
              "Warm/Cold", "Hit rate %", "p99 us", "p999 us"});

    for (unsigned threads : thread_counts) {
        ServiceOptions so;
        so.max_visits = kVisitCap;
        MetricsRegistry metrics;
        QueryService svc(so, metrics);
        ThreadPool pool(threads);

        auto start = std::chrono::steady_clock::now();
        runBatch(svc, workload, pool);
        auto mid = std::chrono::steady_clock::now();
        runBatch(svc, workload, pool);
        auto stop = std::chrono::steady_clock::now();

        double cold_ns =
            std::chrono::duration<double, std::nano>(mid - start)
                .count();
        double warm_ns =
            std::chrono::duration<double, std::nano>(stop - mid)
                .count();
        auto st = svc.cacheStats();
        double hit_rate =
            st.lookups
                ? 100.0 * static_cast<double>(st.hits) /
                      static_cast<double>(st.lookups)
                : 0.0;
        // Tail latency across both passes, from the service's own
        // request histogram (what --metrics would report).
        Histogram &latency = metrics.histogram("service.latency_us");

        t.addRow()
            .cell(static_cast<uint64_t>(threads))
            .cell(cold_ns / 1e6)
            .cell(qps(workload.size(), cold_ns), 0)
            .cell(warm_ns / 1e6)
            .cell(qps(workload.size(), warm_ns), 0)
            .cell(warm_ns > 0 ? cold_ns / warm_ns : 0.0, 1)
            .cell(hit_rate, 1)
            .cell(latency.percentile(0.99))
            .cell(latency.percentile(0.999));
    }
    emit(t, opt);
    return 0;
}
