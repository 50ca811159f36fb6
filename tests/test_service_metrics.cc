/**
 * @file
 * Unit tests for the metrics registry: counter/gauge semantics, stable
 * references, power-of-two histogram buckets, the interpolated
 * percentile, and scrape-consistent snapshots under concurrent
 * updates.  test_telemetry_prometheus covers the rendering.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "support/metrics.h"

namespace uov {
namespace service {
namespace {

TEST(Metrics, CounterIncrements)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(Metrics, GaugeMovesBothWays)
{
    Gauge g;
    g.add(10);
    g.sub(3);
    EXPECT_EQ(g.value(), 7);
    g.set(-2);
    EXPECT_EQ(g.value(), -2);
}

TEST(Metrics, RegistryReturnsStableReferences)
{
    MetricsRegistry r;
    Counter &a = r.counter("service.requests");
    Counter &b = r.counter("service.requests");
    EXPECT_EQ(&a, &b);
    a.inc();
    EXPECT_EQ(b.value(), 1u);
    // Distinct names are distinct metrics; gauges and histograms
    // live in separate namespaces from counters.
    EXPECT_NE(&r.counter("other"), &a);
    EXPECT_EQ(&r.gauge("service.requests"),
              &r.gauge("service.requests"));
    EXPECT_EQ(&r.histogram("h"), &r.histogram("h"));
}

TEST(Metrics, HistogramBucketsByBitWidth)
{
    Histogram h;
    h.observe(0); // bucket 0
    h.observe(1); // bucket 1
    h.observe(2); // bucket 2
    h.observe(3); // bucket 2
    h.observe(1000); // bucket 10
    Histogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.count, 5u);
    EXPECT_EQ(s.sum, 1006u);
    EXPECT_EQ(s.buckets[0], 1u);
    EXPECT_EQ(s.buckets[1], 1u);
    EXPECT_EQ(s.buckets[2], 2u);
    EXPECT_EQ(s.buckets[10], 1u);
}

TEST(Metrics, PercentileOfEmptyHistogramIsZero)
{
    Histogram h;
    EXPECT_EQ(h.percentile(0.0), 0u);
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.percentile(1.0), 0u);
}

TEST(Metrics, PercentileOfSingleValueReturnsBucketUpperBound)
{
    Histogram h;
    h.observe(100); // bucket 7: [64, 127]
    // One observation owns every rank; interpolation lands on the
    // bucket's upper bound at any q.
    EXPECT_EQ(h.percentile(0.0), 127u);
    EXPECT_EQ(h.percentile(0.5), 127u);
    EXPECT_EQ(h.percentile(1.0), 127u);
    // Zero lives in its own single-value bucket and reports exactly.
    Histogram z;
    z.observe(0);
    EXPECT_EQ(z.percentile(0.5), 0u);
}

TEST(Metrics, PercentileInterpolatesWithinOwningBucket)
{
    Histogram h;
    for (int i = 0; i < 4; ++i)
        h.observe(5); // bucket 3: [4, 7]
    // target rank r of 4 in-bucket observations -> 4 + (r/4) * 3.
    EXPECT_EQ(h.percentile(0.25), 4u);
    EXPECT_EQ(h.percentile(0.5), 5u);
    EXPECT_EQ(h.percentile(1.0), 7u);
}

TEST(Metrics, PercentileCrossesBucketsAtTheRightRank)
{
    Histogram h;
    for (int i = 0; i < 99; ++i)
        h.observe(3); // bucket 2: [2, 3]
    h.observe(1 << 20); // bucket 21
    EXPECT_LE(h.percentile(0.5), 3u);
    EXPECT_GE(h.percentile(0.5), 2u);
    EXPECT_EQ(h.percentile(0.99), 3u);
    EXPECT_EQ(h.percentile(1.0), (uint64_t{1} << 21) - 1);
}

TEST(Metrics, PercentileOverflowBucketSaturates)
{
    Histogram h;
    h.observe(~uint64_t{0}); // clamped into the last bucket
    EXPECT_EQ(h.percentile(0.5),
              (uint64_t{1} << (Histogram::kBuckets - 1)) - 1);
}

TEST(Metrics, HistogramOverflowBucketSaturates)
{
    Histogram h;
    h.observe(~uint64_t{0});       // bit width 64 -> clamped
    h.observe(uint64_t{1} << 60);  // bit width 61 -> clamped
    Histogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.count, 2u);
    EXPECT_EQ(s.buckets[Histogram::kBuckets - 1], 2u);
    // Everything below the overflow bucket stays empty.
    for (size_t b = 0; b + 1 < Histogram::kBuckets; ++b)
        EXPECT_EQ(s.buckets[b], 0u) << "bucket " << b;
}

TEST(Metrics, SnapshotUnderConcurrentIncrement)
{
    // Snapshot the registry while writers hammer it; TSan (the
    // `service` CI label) validates the synchronization, this test
    // validates that the counter never runs backwards between
    // snapshots, that no snapshot counts more observations than were
    // made, and that totals land intact.
    MetricsRegistry r;
    constexpr int kWriters = 4;
    constexpr int kPerThread = 5000;
    std::atomic<bool> done{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < kWriters; ++t) {
        workers.emplace_back([&r] {
            for (int i = 0; i < kPerThread; ++i) {
                r.counter("snap.c").inc();
                r.gauge("snap.g").add(1);
                r.histogram("snap.h").observe(
                    static_cast<uint64_t>(i));
            }
        });
    }
    constexpr uint64_t kTotal = uint64_t{kWriters} * kPerThread;
    std::thread reader([&] {
        uint64_t last = 0;
        while (!done.load()) {
            MetricsSnapshot s = r.snapshot();
            for (const auto &[name, value] : s.counters) {
                EXPECT_GE(value, last) << name;
                last = value;
            }
            for (const auto &[name, h] : s.histograms)
                EXPECT_LE(h.count, kTotal) << name;
        }
    });
    for (auto &w : workers)
        w.join();
    done.store(true);
    reader.join();
    EXPECT_EQ(r.counter("snap.c").value(),
              static_cast<uint64_t>(kWriters) * kPerThread);
    EXPECT_EQ(r.gauge("snap.g").value(), kWriters * kPerThread);
    EXPECT_EQ(r.histogram("snap.h").snapshot().count,
              static_cast<uint64_t>(kWriters) * kPerThread);
}

TEST(Metrics, ConcurrentUpdatesLoseNothing)
{
    MetricsRegistry r;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&r] {
            // Lookup-or-create races with updates on every round.
            for (int i = 0; i < kPerThread; ++i) {
                r.counter("c").inc();
                r.histogram("h").observe(static_cast<uint64_t>(i));
            }
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(r.counter("c").value(),
              static_cast<uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(r.histogram("h").snapshot().count,
              static_cast<uint64_t>(kThreads) * kPerThread);
}

} // namespace
} // namespace service
} // namespace uov
