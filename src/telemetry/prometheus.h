/**
 * @file
 * Prometheus text exposition (format version 0.0.4) rendered from a
 * MetricsSnapshot.
 *
 * Mapping from the repo's metric model:
 *
 *  - names: dots become underscores, every other character outside
 *    [a-zA-Z0-9_:] becomes '_', and a leading digit gains a '_'
 *    prefix -- "service.cache.hits" scrapes as
 *    uov_service_cache_hits_total.  Everything carries the "uov_"
 *    namespace prefix so a shared Prometheus doesn't collide.
 *  - counters gain the conventional "_total" suffix.
 *  - gauges render as-is.
 *  - histograms render the full cumulative _bucket series over the
 *    registry's bit-width buckets (le = 2^b - 1, plus the mandatory
 *    le="+Inf"), _sum, and _count, all taken from one
 *    Histogram::Snapshot so count always equals the +Inf bucket even
 *    under concurrent increments (the scrape-consistency contract --
 *    see support/metrics.h).  Empty histograms still render a
 *    zero-valued +Inf bucket, _sum, and _count.  Because buckets are
 *    coarse, interpolated p50/p99/p999 companion gauges
 *    (<name>_p50 ...) are emitted too -- cheap for dashboards that
 *    would otherwise histogram_quantile over power-of-two buckets.
 *
 * renderPrometheus(registry) is the /metrics endpoint body; the
 * sanitize/escape helpers are exposed for tests.
 */

#ifndef UOV_TELEMETRY_PROMETHEUS_H
#define UOV_TELEMETRY_PROMETHEUS_H

#include <string>

#include "support/metrics.h"

namespace uov {
namespace telemetry {

/** Content-Type for the exposition body. */
inline const char *
prometheusContentType()
{
    return "text/plain; version=0.0.4; charset=utf-8";
}

/**
 * Sanitize @p name into a legal Prometheus metric name
 * ([a-zA-Z_:][a-zA-Z0-9_:]*): dots and other illegal characters map
 * to '_', a leading digit gains a '_' prefix, and an empty name
 * becomes "_".
 */
std::string sanitizeMetricName(const std::string &name);

/** Escape a label value (backslash, double quote, newline). */
std::string escapeLabelValue(const std::string &value);

/** Render one snapshot as the full exposition document. */
std::string renderPrometheus(const MetricsSnapshot &snapshot,
                             const std::string &prefix = "uov_");

/** Snapshot @p registry and render it. */
std::string renderPrometheus(const MetricsRegistry &registry,
                             const std::string &prefix = "uov_");

} // namespace telemetry
} // namespace uov

#endif // UOV_TELEMETRY_PROMETHEUS_H
