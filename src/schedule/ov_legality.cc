#include "schedule/ov_legality.h"

#include <unordered_map>

#include "geometry/box.h"
#include "support/error.h"

namespace uov {

bool
ovLegalForSchedule(const Schedule &schedule, const IVec &lo,
                   const IVec &hi, const IVec &ov,
                   const Stencil &stencil)
{
    UOV_REQUIRE(!ov.isZero(), "zero occupancy vector");
    UOV_REQUIRE(lo.dim() == stencil.dim() && ov.dim() == stencil.dim(),
                "dimension mismatch");

    std::unordered_map<IVec, uint64_t, IVecHash> position;
    uint64_t counter = 0;
    schedule.forEach(lo, hi, [&](const IVec &q) {
        position.emplace(q, counter++);
    });

    for (const auto &[p, pos_p] : position) {
        IVec overwriter = p + ov;
        auto it = position.find(overwriter);
        if (it == position.end())
            continue; // p's cell is never reused inside the box
        uint64_t pos_w = it->second;
        for (const auto &v : stencil.deps()) {
            IVec consumer = p + v;
            if (consumer == overwriter)
                continue; // reads precede the write in one iteration
            if (!inBox(consumer, lo, hi))
                continue;
            auto cit = position.find(consumer);
            UOV_CHECK(cit != position.end(),
                      "schedule skipped point " << consumer.str());
            if (cit->second > pos_w)
                return false; // consumer after overwrite: clobber
        }
    }
    return true;
}

} // namespace uov
