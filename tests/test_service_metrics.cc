/**
 * @file
 * Unit tests for the metrics registry: counter/gauge semantics, stable
 * references, power-of-two histogram buckets and quantile bounds, and
 * the deterministic (name-sorted) table and JSON renderings.
 */

#include <gtest/gtest.h>

#include <sstream>
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
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 1006u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 2u);
    EXPECT_EQ(h.bucketCount(10), 1u);
}

TEST(Metrics, HistogramQuantileUpperBounds)
{
    Histogram h;
    EXPECT_EQ(h.quantileUpperBound(0.5), 0u); // empty
    for (int i = 0; i < 99; ++i)
        h.observe(3); // bucket 2, upper bound 3
    h.observe(1 << 20); // one outlier in bucket 21
    EXPECT_EQ(h.quantileUpperBound(0.5), 3u);
    EXPECT_EQ(h.quantileUpperBound(0.99), 3u);
    EXPECT_EQ(h.quantileUpperBound(1.0), (uint64_t{1} << 21) - 1);
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

TEST(Metrics, TablePercentilesUseInterpolation)
{
    MetricsRegistry r;
    r.histogram("lat").observe(100);
    std::ostringstream oss;
    r.table().print(oss);
    std::string out = oss.str();
    EXPECT_NE(out.find("p50=127"), std::string::npos) << out;
    EXPECT_NE(out.find("p99=127"), std::string::npos) << out;
}

TEST(Metrics, TableIsNameSortedWithOneRowPerMetric)
{
    MetricsRegistry r;
    r.counter("zeta").inc(3);
    r.counter("alpha").inc(1);
    r.gauge("depth").set(5);
    r.histogram("lat").observe(7);

    Table t = r.table();
    EXPECT_EQ(t.rowCount(), 4u);
    std::ostringstream oss;
    t.print(oss);
    std::string out = oss.str();
    // Counters render name-sorted before gauges and histograms.
    EXPECT_LT(out.find("alpha"), out.find("zeta"));
    EXPECT_NE(out.find("counter"), std::string::npos);
    EXPECT_NE(out.find("gauge"), std::string::npos);
    EXPECT_NE(out.find("histogram"), std::string::npos);
    EXPECT_NE(out.find("count=1"), std::string::npos);
}

TEST(Metrics, JsonRendering)
{
    MetricsRegistry r;
    r.counter("service.requests").inc(12);
    r.gauge("service.queue_depth").set(-1);
    r.histogram("service.latency_us").observe(100);

    std::string json = r.json();
    EXPECT_NE(json.find("\"counters\":{\"service.requests\":12}"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"gauges\":{\"service.queue_depth\":-1}"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"service.latency_us\":{\"count\":1,\"sum\":"
                        "100,\"p50_le\":127,\"p99_le\":127}"),
              std::string::npos)
        << json;
}

TEST(Metrics, JsonEscapesMetricNames)
{
    MetricsRegistry r;
    r.counter("quote\"back\\slash").inc(1);
    r.gauge("tab\there").set(2);
    r.histogram(std::string("ctl\x01") + "byte").observe(3);

    std::string json = r.json();
    EXPECT_NE(json.find("\"quote\\\"back\\\\slash\":1"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"tab\\there\":2"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"ctl\\u0001byte\""), std::string::npos)
        << json;
    // No raw control bytes or unescaped quotes survive inside names.
    EXPECT_EQ(json.find('\x01'), std::string::npos);
    EXPECT_EQ(json.find('\t'), std::string::npos);
}

TEST(Metrics, HistogramOverflowBucketSaturates)
{
    Histogram h;
    h.observe(~uint64_t{0});       // bit width 64 -> clamped
    h.observe(uint64_t{1} << 60);  // bit width 61 -> clamped
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.bucketCount(Histogram::kBuckets - 1), 2u);
    // Everything below the overflow bucket stays empty.
    for (size_t b = 0; b + 1 < Histogram::kBuckets; ++b)
        EXPECT_EQ(h.bucketCount(b), 0u) << "bucket " << b;
    EXPECT_EQ(h.quantileUpperBound(0.5),
              (uint64_t{1} << (Histogram::kBuckets - 1)) - 1);
}

TEST(Metrics, SnapshotUnderConcurrentIncrement)
{
    // Render table() and json() while writers hammer the registry;
    // TSan (the `service` CI label) validates the synchronization,
    // this test validates nothing crashes and totals land intact.
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
    std::thread reader([&] {
        while (!done.load()) {
            std::string json = r.json();
            EXPECT_NE(json.find("\"counters\""), std::string::npos);
            std::ostringstream oss;
            r.table().print(oss);
        }
    });
    for (auto &w : workers)
        w.join();
    done.store(true);
    reader.join();
    EXPECT_EQ(r.counter("snap.c").value(),
              static_cast<uint64_t>(kWriters) * kPerThread);
    EXPECT_EQ(r.gauge("snap.g").value(), kWriters * kPerThread);
    EXPECT_EQ(r.histogram("snap.h").count(),
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
    EXPECT_EQ(r.histogram("h").count(),
              static_cast<uint64_t>(kThreads) * kPerThread);
}

} // namespace
} // namespace service
} // namespace uov
