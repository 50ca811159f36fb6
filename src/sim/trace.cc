#include "sim/trace.h"

#include <unordered_set>

#include "support/error.h"

namespace uov {

uint64_t
Trace::footprintBytes(int64_t line_bytes) const
{
    UOV_REQUIRE(line_bytes > 0, "line size must be positive");
    std::unordered_set<uint64_t> lines;
    forEach([&](const TraceEvent &e) {
        TraceEvent::Kind k = e.kind();
        if (k == TraceEvent::Kind::Load || k == TraceEvent::Kind::Store)
            lines.insert(e.addr() / static_cast<uint64_t>(line_bytes));
    });
    return lines.size() * static_cast<uint64_t>(line_bytes);
}

double
Trace::replay(MemorySystem &ms) const
{
    forEach([&](const TraceEvent &e) {
        switch (e.kind()) {
          case TraceEvent::Kind::Load:
            ms.access(e.addr(), false);
            break;
          case TraceEvent::Kind::Store:
            ms.access(e.addr(), true);
            break;
          case TraceEvent::Kind::Branch:
            ms.branch();
            break;
          case TraceEvent::Kind::Compute:
            ms.compute(e.computeCycles());
            break;
        }
    });
    return ms.cycles();
}

} // namespace uov
