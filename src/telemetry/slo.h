/**
 * @file
 * Rolling-window SLO tracker: p50/p99/p999 latency and
 * degraded/shed/error ratios over the last W seconds, compared
 * against configurable targets and served as the /slo endpoint.
 *
 * The process-lifetime histograms in support/metrics answer "how has
 * this daemon behaved since it started"; an SLO verdict needs "how is
 * it behaving *now*".  The tracker keeps one slot per second (epoch
 * stamped, lazily reset when the ring laps), each holding outcome
 * counts and a bit-width latency histogram; report() merges the
 * slots whose epoch is still inside the window and reuses the shared
 * bucketPercentile interpolation, so /slo and /metrics quantiles
 * agree on method.
 *
 * record() takes one short mutex hold per request -- the serving path
 * already pays a mutex for the result cache shard, so this is noise;
 * the flight recorder takes one such hold per request as well.
 *
 * Time is injected (NowFn, seconds) so tests can march the window
 * deterministically; production uses steady_clock.
 */

#ifndef UOV_TELEMETRY_SLO_H
#define UOV_TELEMETRY_SLO_H

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "support/metrics.h"
#include "telemetry/flight_recorder.h"

namespace uov {
namespace telemetry {

/** Targets; 0 (for latencies) / a negative ratio = not enforced. */
struct SloOptions
{
    int64_t window_s = 60;  ///< rolling window (clamped to [1, 600])
    uint64_t p50_us = 0;    ///< target: p50 latency <= this
    uint64_t p99_us = 0;
    uint64_t p999_us = 0;
    double max_degraded = -1; ///< target: degraded / total <= this
    double max_shed = -1;
    double max_error = -1;
};

class SloTracker
{
  public:
    using NowFn = std::function<int64_t()>; ///< seconds, monotone

    explicit SloTracker(SloOptions options = {}, NowFn now = nullptr);

    /** Record one finished request. */
    void record(FlightDigest::Outcome outcome, uint64_t latency_us);

    struct Report
    {
        int64_t window_s = 0;
        uint64_t total = 0;
        uint64_t degraded = 0; ///< excludes shed
        uint64_t shed = 0;
        uint64_t errors = 0;
        uint64_t p50_us = 0;
        uint64_t p99_us = 0;
        uint64_t p999_us = 0;
        bool ok = true; ///< every enforced target met

        /** The violated-target names ("p99_us", "max_error", ...). */
        std::vector<std::string> violations;
    };

    /** Merge the live window and judge it against the targets. */
    Report report() const;

    /** The /slo JSON document (window, counts, quantiles, verdict). */
    std::string json() const;

    const SloOptions &options() const { return _options; }

  private:
    struct Slot
    {
        int64_t epoch = -1; ///< second this slot currently holds
        uint64_t total = 0;
        uint64_t degraded = 0;
        uint64_t shed = 0;
        uint64_t errors = 0;
        uint64_t buckets[Histogram::kBuckets] = {};
    };

    Slot &slotFor(int64_t sec); ///< _mutex held

    SloOptions _options;
    NowFn _now;
    mutable std::mutex _mutex;
    std::vector<Slot> _slots;
};

} // namespace telemetry
} // namespace uov

#endif // UOV_TELEMETRY_SLO_H
