/**
 * @file
 * Flight recorder: a ring buffer of the last K request digests,
 * answering "why was request X degraded/shed?" *after* the fact
 * without a trace session armed in advance.
 *
 * Every mapped answer is a pure function of its canonical key (the
 * paper's schedule-independence result), so a request's provenance --
 * cache hit, store hit, fresh search, shed floor -- plus its outcome
 * and wall time is a tiny fixed-size record that is cheap to keep and
 * links (via the trace id) to the structured log and any exported
 * Perfetto span for the same request.  The request's TraceScope
 * carries the digest its layers fill in (telemetry/trace_context.h);
 * the batch executor completes and records it.
 *
 * Concurrency: one mutex guards the ring.  record() copies one digest
 * under it and snapshot() copies the retained digests under it, so
 * every snapshot is a set of whole digests in seq order; json()
 * renders its snapshot outside the lock.
 */

#ifndef UOV_TELEMETRY_FLIGHT_RECORDER_H
#define UOV_TELEMETRY_FLIGHT_RECORDER_H

#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

namespace uov {
namespace telemetry {

/** One request's post-hoc digest (fixed-size: no heap, cheap to copy). */
struct FlightDigest
{
    enum class Verb : uint8_t { Shortest, Storage, Native, Tune, Unknown };
    enum class Outcome : uint8_t { Optimal, Degraded, Shed, Error };

    static constexpr size_t kCauseBytes = 24;

    uint64_t seq = 0;      ///< recorder-assigned, monotone from 1
    uint64_t trace_id = 0; ///< links log / span / response token
    uint64_t key_hash = 0; ///< canonical-key hash (0 = never keyed)
    uint64_t request_index = 0;
    uint64_t nodes = 0;    ///< branch-and-bound nodes expanded
    uint64_t wall_us = 0;
    Verb verb = Verb::Unknown;
    Outcome outcome = Outcome::Optimal;
    bool cache_hit = false;
    bool store_hit = false;
    bool coalesced = false; ///< answered by another flight's search
    char cause[kCauseBytes] = {}; ///< degraded reason / error head

    /** Truncating NUL-terminated copy into the cause field. */
    void setCause(const std::string &text);
    std::string causeStr() const;

    static const char *verbName(Verb v);
    static const char *outcomeName(Outcome o);
};

class FlightRecorder
{
  public:
    /** @p capacity is rounded up to at least 8 digests. */
    explicit FlightRecorder(size_t capacity = 256);

    /** Record one digest (seq is assigned here). */
    void record(FlightDigest digest);

    /** Copies of the retained digests, oldest first (seq order); the
     *  newest digest's seq counts every digest ever recorded. */
    std::vector<FlightDigest> snapshot() const;

    size_t capacity() const { return _ring.size(); }

    /** The /flight JSON document: capacity, recorded, digests[]. */
    std::string json() const;

  private:
    mutable std::mutex _mutex;
    std::vector<FlightDigest> _ring; ///< digest seq s sits at (s-1) % K
    uint64_t _recorded = 0;
};

} // namespace telemetry
} // namespace uov

#endif // UOV_TELEMETRY_FLIGHT_RECORDER_H
