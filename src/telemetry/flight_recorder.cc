#include "telemetry/flight_recorder.h"

#include <algorithm>
#include <sstream>

#include "support/json.h"
#include "support/logging.h"

namespace uov {
namespace telemetry {

void
FlightDigest::setCause(const std::string &text)
{
    size_t n = std::min(text.size(), kCauseBytes - 1);
    std::memcpy(cause, text.data(), n);
    cause[n] = '\0';
}

std::string
FlightDigest::causeStr() const
{
    return std::string(cause,
                       strnlen(cause, kCauseBytes));
}

const char *
FlightDigest::verbName(Verb v)
{
    switch (v) {
      case Verb::Shortest: return "shortest";
      case Verb::Storage:  return "storage";
      case Verb::Native:   return "native";
      case Verb::Tune:     return "tune";
      case Verb::Unknown:  return "unknown";
    }
    return "?";
}

const char *
FlightDigest::outcomeName(Outcome o)
{
    switch (o) {
      case Outcome::Optimal:  return "optimal";
      case Outcome::Degraded: return "degraded";
      case Outcome::Shed:     return "shed";
      case Outcome::Error:    return "error";
    }
    return "?";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : _ring(std::max<size_t>(capacity, 8))
{
}

void
FlightRecorder::record(FlightDigest digest)
{
    std::lock_guard<std::mutex> lock(_mutex);
    digest.seq = ++_recorded;
    _ring[(digest.seq - 1) % _ring.size()] = digest;
}

std::vector<FlightDigest>
FlightRecorder::snapshot() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    uint64_t first = _recorded - std::min<uint64_t>(_recorded,
                                                     _ring.size());
    std::vector<FlightDigest> out;
    out.reserve(_recorded - first);
    for (uint64_t seq = first + 1; seq <= _recorded; ++seq)
        out.push_back(_ring[(seq - 1) % _ring.size()]);
    return out;
}

std::string
FlightRecorder::json() const
{
    // Rendered outside the lock; the newest digest's seq is the
    // recorded count this snapshot saw.
    std::vector<FlightDigest> digests = snapshot();
    std::ostringstream oss;
    oss << "{\"capacity\":" << capacity() << ",\"recorded\":"
        << (digests.empty() ? 0 : digests.back().seq)
        << ",\"digests\":[";
    for (size_t i = 0; i < digests.size(); ++i) {
        const FlightDigest &d = digests[i];
        if (i)
            oss << ",";
        oss << "{\"seq\":" << d.seq << ",\"trace_id\":\""
            << traceIdHex(d.trace_id) << "\",\"key_hash\":\""
            << traceIdHex(d.key_hash) << "\",\"index\":"
            << d.request_index << ",\"verb\":\""
            << FlightDigest::verbName(d.verb) << "\",\"outcome\":\""
            << FlightDigest::outcomeName(d.outcome) << "\",\"cause\":\""
            << jsonEscape(d.causeStr()) << "\",\"nodes\":" << d.nodes
            << ",\"cache_hit\":" << (d.cache_hit ? "true" : "false")
            << ",\"store_hit\":" << (d.store_hit ? "true" : "false")
            << ",\"coalesced\":" << (d.coalesced ? "true" : "false")
            << ",\"wall_us\":" << d.wall_us << "}";
    }
    oss << "]}";
    return oss.str();
}

} // namespace telemetry
} // namespace uov
