// Prometheus text-exposition tests: name sanitization, label value
// escaping, histogram edge cases (empty, +Inf overflow bucket), the
// golden-document pin, and the scrape-consistency contract under
// concurrent increments (a rendered histogram is never torn: the
// +Inf bucket always equals _count, and _sum always covers the
// rendered observations).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "support/metrics.h"
#include "telemetry/prometheus.h"

using namespace uov;
using namespace uov::telemetry;

TEST(PrometheusNames, DotsBecomeUnderscores)
{
    EXPECT_EQ(sanitizeMetricName("service.cache.hits"),
              "service_cache_hits");
    EXPECT_EQ(sanitizeMetricName("already_legal:name"),
              "already_legal:name");
}

TEST(PrometheusNames, IllegalCharactersBecomeUnderscores)
{
    EXPECT_EQ(sanitizeMetricName("a-b c/d"), "a_b_c_d");
    EXPECT_EQ(sanitizeMetricName("weird!@#"), "weird___");
}

TEST(PrometheusNames, LeadingDigitGainsPrefix)
{
    EXPECT_EQ(sanitizeMetricName("9lives"), "_9lives");
    EXPECT_EQ(sanitizeMetricName("0.count"), "_0_count");
}

TEST(PrometheusNames, EmptyNameBecomesUnderscore)
{
    EXPECT_EQ(sanitizeMetricName(""), "_");
}

TEST(PrometheusLabels, EscapesBackslashQuoteNewline)
{
    EXPECT_EQ(escapeLabelValue("plain"), "plain");
    EXPECT_EQ(escapeLabelValue("a\"b"), "a\\\"b");
    EXPECT_EQ(escapeLabelValue("a\\b"), "a\\\\b");
    EXPECT_EQ(escapeLabelValue("a\nb"), "a\\nb");
    EXPECT_EQ(escapeLabelValue("\\\"\n"), "\\\\\\\"\\n");
}

TEST(PrometheusRender, CountersGetTotalSuffixAndType)
{
    MetricsRegistry registry;
    registry.counter("service.requests").inc(7);
    std::string doc = renderPrometheus(registry);
    EXPECT_NE(doc.find("# TYPE uov_service_requests_total counter\n"),
              std::string::npos);
    EXPECT_NE(doc.find("uov_service_requests_total 7\n"),
              std::string::npos);
}

TEST(PrometheusRender, GaugesRenderSignedValues)
{
    MetricsRegistry registry;
    registry.gauge("service.queue_depth").set(-3);
    std::string doc = renderPrometheus(registry);
    EXPECT_NE(doc.find("# TYPE uov_service_queue_depth gauge\n"),
              std::string::npos);
    EXPECT_NE(doc.find("uov_service_queue_depth -3\n"),
              std::string::npos);
}

TEST(PrometheusRender, EmptyHistogramStillRendersInfSumCount)
{
    MetricsRegistry registry;
    registry.histogram("service.latency_us");
    std::string doc = renderPrometheus(registry);
    EXPECT_NE(
        doc.find("uov_service_latency_us_bucket{le=\"+Inf\"} 0\n"),
        std::string::npos);
    EXPECT_NE(doc.find("uov_service_latency_us_sum 0\n"),
              std::string::npos);
    EXPECT_NE(doc.find("uov_service_latency_us_count 0\n"),
              std::string::npos);
}

TEST(PrometheusRender, HugeObservationLandsInOverflowBucket)
{
    MetricsRegistry registry;
    Histogram &h = registry.histogram("big");
    // Larger than any finite bit-width bucket bound: only the last
    // bucket (rendered cumulatively, then +Inf) can hold it.
    h.observe(~uint64_t{0});
    h.observe(1);
    std::string doc = renderPrometheus(registry);
    EXPECT_NE(doc.find("uov_big_bucket{le=\"+Inf\"} 2\n"),
              std::string::npos);
    EXPECT_NE(doc.find("uov_big_count 2\n"), std::string::npos);

    // The cumulative series never decreases and ends at the count.
    Histogram::Snapshot snap = h.snapshot();
    uint64_t cumulative = 0;
    for (size_t b = 0; b < Histogram::kBuckets; ++b)
        cumulative += snap.buckets[b];
    EXPECT_EQ(cumulative, snap.count);
}

TEST(PrometheusRender, BucketSeriesIsCumulative)
{
    MetricsRegistry registry;
    Histogram &h = registry.histogram("lat");
    h.observe(1); // bucket 1 (le 1)
    h.observe(2); // bucket 2 (le 3)
    h.observe(3); // bucket 2 (le 3)
    std::string doc = renderPrometheus(registry);
    EXPECT_NE(doc.find("uov_lat_bucket{le=\"1\"} 1\n"),
              std::string::npos);
    EXPECT_NE(doc.find("uov_lat_bucket{le=\"3\"} 3\n"),
              std::string::npos);
    EXPECT_NE(doc.find("uov_lat_bucket{le=\"+Inf\"} 3\n"),
              std::string::npos);
}

// The golden document: pins the full exposition for a representative
// registry.  Regenerate by updating tests/data/telemetry/metrics.golden
// to match a reviewed rendering -- the pin is the review.
TEST(PrometheusRender, MatchesGoldenDocument)
{
    MetricsRegistry registry;
    registry.counter("service.requests").inc(42);
    registry.counter("9starts.with-digit").inc(1);
    registry.gauge("service.queue_depth").set(5);
    Histogram &h = registry.histogram("service.latency_us");
    h.observe(0);
    h.observe(5);
    h.observe(5);
    h.observe(100);

    std::string rendered = renderPrometheus(registry);

    std::ifstream golden(std::string(UOV_TELEMETRY_GOLDEN_DIR) +
                         "/metrics.golden");
    ASSERT_TRUE(golden.is_open())
        << "missing tests/data/telemetry/metrics.golden";
    std::stringstream expected;
    expected << golden.rdbuf();
    EXPECT_EQ(rendered, expected.str());
}

TEST(PrometheusRender, SnapshotOrderIsDeterministic)
{
    MetricsRegistry registry;
    registry.counter("b.second").inc(2);
    registry.counter("a.first").inc(1);
    registry.gauge("z.gauge").set(1);
    std::string doc1 = renderPrometheus(registry);
    std::string doc2 = renderPrometheus(registry);
    EXPECT_EQ(doc1, doc2);
    // Counters render sorted by name regardless of creation order.
    EXPECT_LT(doc1.find("uov_a_first_total"),
              doc1.find("uov_b_second_total"));
}

// The satellite contract: a scraper racing live observe() calls never
// sees a torn histogram.  All observations are the same value v, so
// any consistent rendering satisfies sum == count * v exactly, the
// +Inf bucket equals count, and the cumulative buckets sum to count.
TEST(PrometheusRender, ConcurrentScrapeSeesConsistentHistogram)
{
    MetricsRegistry registry;
    Histogram &h = registry.histogram("race.lat");
    constexpr uint64_t kValue = 9; // bucket 4, le 15
    constexpr int kWriters = 4;
    constexpr uint64_t kPerWriter = 20'000;

    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w)
        writers.emplace_back([&] {
            for (uint64_t i = 0; i < kPerWriter; ++i)
                h.observe(kValue);
        });

    uint64_t scrapes = 0;
    while (!stop.load(std::memory_order_relaxed)) {
        Histogram::Snapshot snap = h.snapshot();
        uint64_t bucket_sum = 0;
        for (size_t b = 0; b < Histogram::kBuckets; ++b)
            bucket_sum += snap.buckets[b];
        ASSERT_EQ(bucket_sum, snap.count) << "torn bucket/count";
        ASSERT_GE(snap.sum, snap.count * kValue)
            << "rendered sum does not cover rendered count";
        ++scrapes;
        if (snap.count == kWriters * kPerWriter)
            stop.store(true, std::memory_order_relaxed);
    }
    for (auto &t : writers)
        t.join();

    Histogram::Snapshot final_snap = h.snapshot();
    EXPECT_EQ(final_snap.count, kWriters * kPerWriter);
    EXPECT_EQ(final_snap.sum, kWriters * kPerWriter * kValue);
    EXPECT_GT(scrapes, 0u);
}

TEST(BucketPercentile, InterpolatesWithinBuckets)
{
    Histogram::Snapshot snap;
    snap.buckets[4] = 100; // values in (7, 15]
    snap.count = 100;
    EXPECT_EQ(snap.percentile(0.0), 8u);
    EXPECT_EQ(snap.percentile(1.0), 15u);
    uint64_t p50 = snap.percentile(0.5);
    EXPECT_GE(p50, 8u);
    EXPECT_LE(p50, 15u);
}

TEST(BucketPercentile, EmptyHistogramIsZero)
{
    EXPECT_EQ(Histogram::Snapshot{}.percentile(0.99), 0u);
}
