#include "analysis/region.h"

#include <sstream>
#include <unordered_set>

#include "analysis/dependence.h"
#include "support/error.h"

namespace uov {

std::string
RegionSummary::str() const
{
    std::ostringstream oss;
    oss << array << ": written=" << written << " imported=" << imported
        << " live_out=" << live_out << " temporary=" << temporary;
    return oss.str();
}

RegionSummary
analyzeRegions(const LoopNest &nest, size_t stmt_index,
               const LiveOutPredicate &live_out, int64_t max_scan)
{
    UOV_REQUIRE(nest.tripCount() <= max_scan,
                "region analysis scan over " << nest.tripCount()
                    << " iterations exceeds limit " << max_scan);
    const Statement &stmt = nest.statement(stmt_index);
    const IVec &lo = nest.lo();
    const IVec &hi = nest.hi();

    // Producer distances for reads of the written array.
    DependenceInfo deps = analyzeDependences(nest, stmt_index);

    std::unordered_set<IVec, IVecHash> written;
    std::unordered_set<IVec, IVecHash> imported;

    // The nest's domain is the box [lo, hi].
    scanBox(lo, hi, [&](const IVec &q) {
        written.insert(stmt.write.elementAt(q));
        for (const auto &rd : deps.reads) {
            const Access &read = stmt.reads[rd.read_index];
            if (rd.kind == ReadKind::Import) {
                // Never produced in-nest under the original schedule.
                imported.insert(read.elementAt(q));
                continue;
            }
            // Flow read: imported only when the producer iteration
            // falls outside the domain (boundary inputs).
            if (!inBox(q - rd.distance, lo, hi))
                imported.insert(read.elementAt(q));
        }
    });

    RegionSummary s;
    s.array = stmt.write.array;
    s.written = static_cast<int64_t>(written.size());
    s.imported = static_cast<int64_t>(imported.size());
    for (const auto &e : written)
        if (live_out(e))
            ++s.live_out;
    s.temporary = s.written - s.live_out;
    return s;
}

namespace live_out {

LiveOutPredicate
nothing()
{
    return [](const IVec &) { return false; };
}

LiveOutPredicate
everything()
{
    return [](const IVec &) { return true; };
}

LiveOutPredicate
hyperplane(size_t dim, int64_t value)
{
    return [dim, value](const IVec &e) { return e[dim] == value; };
}

} // namespace live_out

} // namespace uov
