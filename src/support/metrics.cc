#include "support/metrics.h"

#include <bit>

namespace uov {

void
Histogram::observe(uint64_t v)
{
    size_t b = std::bit_width(v); // 0 -> bucket 0, 1 -> 1, 2..3 -> 2...
    if (b >= kBuckets)
        b = kBuckets - 1;
    // Order matters for scrape consistency: the sum is added
    // *before* the bucket increment is published with release
    // order.  A snapshot that observes the bucket increment (acquire)
    // is then guaranteed to also observe this observation's
    // contribution to _sum -- the rendered sum can never be missing a
    // rendered observation.  See Histogram::Snapshot.
    _sum.fetch_add(v, std::memory_order_relaxed);
    _buckets[b].fetch_add(1, std::memory_order_release);
}

Histogram::Snapshot
Histogram::snapshot() const
{
    Snapshot s;
    for (size_t b = 0; b < kBuckets; ++b) {
        s.buckets[b] = _buckets[b].load(std::memory_order_acquire);
        s.count += s.buckets[b];
    }
    // Read after the acquiring bucket loads: every observation whose
    // bucket increment we saw has already contributed to _sum.
    s.sum = _sum.load(std::memory_order_relaxed);
    return s;
}

uint64_t
Histogram::Snapshot::percentile(double q) const
{
    if (count == 0)
        return 0;
    if (q < 0)
        q = 0;
    if (q > 1)
        q = 1;
    uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count));
    if (target == 0)
        target = 1;
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
        uint64_t in_bucket = buckets[b];
        if (seen + in_bucket < target) {
            seen += in_bucket;
            continue;
        }
        if (b == 0)
            return 0;
        // Bucket b holds values in [2^(b-1), 2^b - 1]; interpolate
        // the rank's position within the bucket toward the upper
        // bound (frac = 1 at the last rank in the bucket).
        uint64_t lower = uint64_t{1} << (b - 1);
        uint64_t upper = (uint64_t{1} << b) - 1;
        double frac = static_cast<double>(target - seen) /
                      static_cast<double>(in_bucket);
        return lower + static_cast<uint64_t>(
                           frac * static_cast<double>(upper - lower));
    }
    // Unreachable when count matches the bucket total (target <=
    // count), but keep the saturating answer for safety.
    return (uint64_t{1} << (kBuckets - 1)) - 1;
}

uint64_t
Histogram::percentile(double q) const
{
    return snapshot().percentile(q);
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto &slot = _counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto &slot = _gauges[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto &slot = _histograms[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    MetricsSnapshot s;
    s.counters.reserve(_counters.size());
    for (const auto &[name, c] : _counters)
        s.counters.emplace_back(name, c->value());
    s.gauges.reserve(_gauges.size());
    for (const auto &[name, g] : _gauges)
        s.gauges.emplace_back(name, g->value());
    s.histograms.reserve(_histograms.size());
    for (const auto &[name, h] : _histograms)
        s.histograms.emplace_back(name, h->snapshot());
    return s;
}

} // namespace uov
