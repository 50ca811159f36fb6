#include "schedule/schedule_specific.h"

#include "core/storage_count.h"
#include "geometry/box.h"
#include "support/error.h"

namespace uov {

ScheduleSpecificResult
bestOvForLinearSchedule(const IVec &h, const Stencil &stencil,
                        const std::optional<Polyhedron> &isg)
{
    UOV_REQUIRE(h.dim() == stencil.dim(), "dimension mismatch");
    for (const auto &v : stencil.deps())
        UOV_REQUIRE(h.dot(v) > 0, "h." << v.str()
                                       << " <= 0: not a legal schedule");
    if (isg)
        UOV_REQUIRE(isg->dim() == stencil.dim(),
                    "ISG dimension mismatch");

    auto objective_of = [&](const IVec &w) {
        return isg ? storageCellCount(w, *isg) : w.normSquared();
    };

    // The initial UOV is legal for every legal linear schedule:
    // for each dependence v, h.v < h.(sum of deps) unless the stencil
    // is the single vector {v} == ov (also legal).
    IVec initial = stencil.initialUov();
    UOV_CHECK(ovLegalForLinearSchedule(h, initial, stencil),
              "initial UOV must be schedule-legal");

    ScheduleSpecificResult best{initial, objective_of(initial), 0};

    int64_t radius_sq = initial.normSquared();
    if (isg) {
        // Length bound from the storage bound, as in Section 3.2.1.
        radius_sq = knownBoundsRadiusSquared(initial, *isg);
    }
    scanBall(stencil.dim(), radius_sq, [&](const IVec &w) {
        if (h.dot(w) <= 0)
            return;
        ++best.candidates;
        if (!ovLegalForLinearSchedule(h, w, stencil))
            return;
        int64_t obj = objective_of(w);
        if (obj < best.objective ||
            (obj == best.objective && w < best.ov)) {
            best.objective = obj;
            best.ov = w;
        }
    });
    return best;
}

} // namespace uov
