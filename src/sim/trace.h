/**
 * @file
 * Address-trace recording and replay.
 *
 * TraceRecorder is a memory policy (like SimMem) that captures the
 * exact access stream a kernel produces; traces can be replayed
 * through any MemorySystem or diffed.  This is the
 * glue for trace-driven experiments: record once, replay across all
 * three machine models without re-running the kernel.
 *
 * Storage is tuned for the 1e7-point scaling sweeps: each event packs
 * into 8 bytes (kind tagged in the high bits of the address word) and
 * events live in fixed-size chunks, so recording never copies the
 * events already captured the way a doubling std::vector would.
 * Compute hints are recorded as events too, which makes replay()
 * reproduce a direct SimMem run's cycle count bit-for-bit (see
 * StreamingSim's regression test) -- the hint is stored as float
 * bits, exact for the small constant costs the kernels charge.
 */

#ifndef UOV_SIM_TRACE_H
#define UOV_SIM_TRACE_H

#include <bit>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "sim/machine.h"
#include "sim/memory_policy.h"
#include "support/error.h"

namespace uov {

/**
 * One recorded event, packed into 8 bytes: the kind lives in the top
 * two bits, the low 62 bits hold the payload (byte address for
 * loads/stores, zero for branches, float bits for compute hints).
 */
class TraceEvent
{
  public:
    enum class Kind : uint8_t { Load = 0, Store = 1, Branch = 2,
                                Compute = 3 };

    static constexpr unsigned kKindShift = 62;
    static constexpr uint64_t kPayloadMask =
        (uint64_t{1} << kKindShift) - 1;

    TraceEvent() = default;

    TraceEvent(Kind kind, uint64_t payload)
        : _bits((static_cast<uint64_t>(kind) << kKindShift) |
                (payload & kPayloadMask))
    {
    }

    /** A compute-hint event charging @p cycles (float precision). */
    static TraceEvent
    compute(double cycles)
    {
        return TraceEvent(
            Kind::Compute,
            std::bit_cast<uint32_t>(static_cast<float>(cycles)));
    }

    Kind kind() const { return static_cast<Kind>(_bits >> kKindShift); }
    uint64_t addr() const { return _bits & kPayloadMask; }

    double
    computeCycles() const
    {
        return std::bit_cast<float>(
            static_cast<uint32_t>(_bits & kPayloadMask));
    }

    bool operator==(const TraceEvent &o) const = default;

  private:
    uint64_t _bits = 0;
};

static_assert(sizeof(TraceEvent) == 8,
              "TraceEvent must stay 8 bytes; 1e7-point sweeps record "
              "hundreds of millions of them");

/**
 * A recorded access stream, stored in fixed-size chunks so recording
 * is append-only (no reallocation copies, bounded slack).
 */
class Trace
{
  public:
    /** Events per chunk (8 MiB of trace each). */
    static constexpr size_t kChunkEvents = size_t{1} << 20;

    void
    record(TraceEvent::Kind kind, uint64_t addr)
    {
        append(TraceEvent(kind, addr));
        switch (kind) {
          case TraceEvent::Kind::Load: ++_loads; break;
          case TraceEvent::Kind::Store: ++_stores; break;
          case TraceEvent::Kind::Branch: ++_branches; break;
          case TraceEvent::Kind::Compute: break;
        }
    }

    void
    recordCompute(double cycles)
    {
        append(TraceEvent::compute(cycles));
    }

    size_t size() const { return _size; }

    /** The i-th event (chunk-indexed; O(1)). */
    TraceEvent
    at(size_t i) const
    {
        UOV_REQUIRE(i < _size, "event index " << i << " out of range");
        return _chunks[i / kChunkEvents][i % kChunkEvents];
    }

    /** Visit every event in record order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &chunk : _chunks)
            for (const TraceEvent &e : chunk)
                fn(e);
    }

    uint64_t loadCount() const { return _loads; }
    uint64_t storeCount() const { return _stores; }
    uint64_t branchCount() const { return _branches; }

    /** Distinct bytes touched (footprint), line-granular. */
    uint64_t footprintBytes(int64_t line_bytes = 64) const;

    /**
     * Replay through a memory system; returns total cycles.  Compute
     * hints are replayed in stream order, so the result matches a
     * direct SimMem run bit-for-bit.
     */
    double replay(MemorySystem &ms) const;

  private:
    void
    append(TraceEvent e)
    {
        size_t c = _size / kChunkEvents;
        if (c == _chunks.size()) {
            _chunks.emplace_back();
            _chunks.back().reserve(kChunkEvents);
        }
        _chunks[c].push_back(e);
        ++_size;
    }

    std::vector<std::vector<TraceEvent>> _chunks;
    size_t _size = 0;
    uint64_t _loads = 0;
    uint64_t _stores = 0;
    uint64_t _branches = 0;
};

/** Memory policy that records while computing real results. */
struct TracingMem
{
    Trace *trace;
    double compute_cycles = 0; ///< accumulated kernel compute hints

    template <typename T>
    T
    load(const SimBuffer<T> &b, size_t i)
    {
        trace->record(TraceEvent::Kind::Load, b.addr(i));
        return b.data()[i];
    }

    template <typename T>
    void
    store(SimBuffer<T> &b, size_t i, T v)
    {
        trace->record(TraceEvent::Kind::Store, b.addr(i));
        b.data()[i] = v;
    }

    void branch() { trace->record(TraceEvent::Kind::Branch, 0); }

    void
    compute(double c)
    {
        trace->recordCompute(c);
        compute_cycles += c;
    }
};

} // namespace uov

#endif // UOV_SIM_TRACE_H
