/**
 * @file
 * A small process-local metrics registry: monotonic counters, up/down
 * gauges, and power-of-two latency histograms, all lock-free to update
 * (relaxed atomics -- metrics order nothing) and registered by name
 * under one mutex.
 *
 * Promoted from src/service so the span tracer (support/trace) and the
 * query service share one registry type; service/service.h re-exports
 * MetricsRegistry as uov::service::MetricsRegistry.
 *
 * Metrics leave the process in one format: snapshot() copies them
 * name-sorted, and telemetry/prometheus renders that copy as the text
 * that uovd's /metrics serves and `uovd --metrics FILE` writes.
 */

#ifndef UOV_SUPPORT_METRICS_H
#define UOV_SUPPORT_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace uov {

/** Monotonically increasing event count. */
class Counter
{
  public:
    void
    inc(uint64_t n = 1)
    {
        _value.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> _value{0};
};

/** Instantaneous level (queue depth, cached bytes). */
class Gauge
{
  public:
    void
    add(int64_t n)
    {
        _value.fetch_add(n, std::memory_order_relaxed);
    }

    void
    sub(int64_t n)
    {
        _value.fetch_sub(n, std::memory_order_relaxed);
    }

    void
    set(int64_t v)
    {
        _value.store(v, std::memory_order_relaxed);
    }

    int64_t
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<int64_t> _value{0};
};

/**
 * Histogram over non-negative values (microseconds, sizes) with
 * power-of-two buckets: bucket b counts observations v with
 * 2^(b-1) < v <= 2^b - roughly, bucket index = bit_width(v).
 */
class Histogram
{
  public:
    static constexpr size_t kBuckets = 48;

    /**
     * A scrape-consistent copy of the histogram.  The invariants a
     * concurrent reader can rely on (and the Prometheus renderer
     * depends on):
     *
     *  - count == sum over buckets (derived, never read separately),
     *    so the cumulative bucket series and the _count line can
     *    never disagree, and
     *  - sum covers every observation included in count: observe()
     *    adds to _sum before publishing the bucket increment with
     *    release order, and snapshot() reads buckets with acquire
     *    order before reading _sum -- so the rendered sum is never
     *    missing the value of a rendered observation (it may include
     *    values of observations still in flight, which is the benign
     *    direction: both series stay monotone across scrapes).
     */
    struct Snapshot
    {
        uint64_t buckets[kBuckets] = {};
        uint64_t count = 0;
        uint64_t sum = 0;

        /**
         * Estimated @p q percentile (q in [0, 1]; 0 when empty) with
         * upper-bound interpolation inside the owning bucket: the
         * target rank's position within bucket b (values in
         * [2^(b-1), 2^b - 1]) interpolates linearly toward the
         * bucket's upper bound, so a bucket holding a single
         * observation reports that bucket's upper bound.  This is the
         * one quantile rule: /metrics and the dashboards read it.
         * Values past the last bucket saturate at its upper bound.
         */
        uint64_t percentile(double q) const;
    };

    void observe(uint64_t v);

    /** The one way to read a histogram: count, sum and buckets. */
    Snapshot snapshot() const;

    /** snapshot().percentile(@p q). */
    uint64_t percentile(double q) const;

  private:
    std::atomic<uint64_t> _buckets[kBuckets] = {};
    std::atomic<uint64_t> _sum{0};
};

/**
 * One name-sorted, scrape-consistent copy of every registered metric.
 * Counters and gauges are single relaxed loads (each individually
 * consistent); histograms use Histogram::snapshot(), so no rendered
 * histogram is ever torn between its buckets and its count.
 */
struct MetricsSnapshot
{
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, int64_t>> gauges;
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
};

/**
 * Named metric registry.  Lookup-or-create is mutex-guarded and
 * returns a stable reference; updates through the returned reference
 * are lock-free.  One registry per service instance keeps tests and
 * embedded uses isolated (no process-global state).
 */
class MetricsRegistry
{
  public:
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Scrape-consistent copy of every metric (name-sorted). */
    MetricsSnapshot snapshot() const;

  private:
    mutable std::mutex _mutex;
    std::map<std::string, std::unique_ptr<Counter>> _counters;
    std::map<std::string, std::unique_ptr<Gauge>> _gauges;
    std::map<std::string, std::unique_ptr<Histogram>> _histograms;
};

} // namespace uov

#endif // UOV_SUPPORT_METRICS_H
