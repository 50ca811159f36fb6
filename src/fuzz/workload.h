/**
 * @file
 * Replayable service workloads drawn from the fuzz generators.
 *
 * Benchmarks (bench_service_throughput, bench_cluster_throughput),
 * the kill-9 recovery drill, and load tests all need the same thing:
 * a high-volume, duplicate-heavy request stream that is a pure
 * function of its seed, so a run can be replayed byte-for-byte on
 * another machine or after a crash.  Distinct queries come from the
 * fuzz case generator; the request list samples them (~8 requests per
 * distinct query by default, matching the production duplicate
 * ratio the result cache exists for).
 */

#ifndef UOV_FUZZ_WORKLOAD_H
#define UOV_FUZZ_WORKLOAD_H

#include <cstdint>
#include <vector>

#include "service/executor.h"

namespace uov {
namespace fuzz {

struct WorkloadOptions
{
    size_t requests = 2000; ///< total request count
    size_t distinct = 24;   ///< distinct underlying queries
    uint64_t seed = 42;     ///< replay handle: same seed, same batch
    int64_t deadline_ms = -1; ///< per-request deadline for every line
};

/**
 * Generate the workload @p opt denotes.  Deterministic: the returned
 * requests (deps, objectives, bounds, order, indices) depend only on
 * the options.  Objectives alternate shortest/storage across the
 * distinct pool.
 */
std::vector<service::Request> makeWorkload(const WorkloadOptions &opt);

} // namespace fuzz
} // namespace uov

#endif // UOV_FUZZ_WORKLOAD_H
