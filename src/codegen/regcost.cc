#include "codegen/regcost.h"

#include <set>
#include <vector>

#include "support/error.h"

namespace uov {

RegisterPlan
evaluateRegisterPlan(const std::vector<IVec> &dists, size_t depth,
                     int64_t jam, int64_t unroll, int64_t live_hint)
{
    UOV_CHECK(depth >= 1, "zero-depth nest");
    UOV_CHECK(jam >= 1 && unroll >= 1, "factors must be >= 1");
    UOV_CHECK(depth >= 2 || jam == 1, "1-D nests cannot jam");

    RegisterPlan plan;
    plan.jam = jam;
    plan.unroll = unroll;

    size_t jdim = depth >= 2 ? depth - 2 : 0;
    size_t udim = depth - 1;

    // A copy (a, b) reads cell (base + a*e_j + b*e_u) - dist.  Two
    // copies share a load iff their shifted distances coincide; a
    // read is forwarded iff its shifted distance lands on another
    // copy's write offset (a'*e_j + b'*e_u with in-tile a', b').
    std::set<std::vector<int64_t>> loads;
    for (int64_t a = 0; a < jam; ++a) {
        for (int64_t b = 0; b < unroll; ++b) {
            for (const IVec &d : dists) {
                std::vector<int64_t> cell(depth, 0);
                for (size_t k = 0; k < depth; ++k)
                    cell[k] = -d[k];
                if (depth >= 2)
                    cell[jdim] += a;
                cell[udim] += b;

                bool in_tile = true;
                for (size_t k = 0; k < depth; ++k) {
                    int64_t hi_k = k == udim   ? unroll - 1
                                   : (depth >= 2 && k == jdim) ? jam - 1
                                                               : 0;
                    if (cell[k] < 0 || cell[k] > hi_k) {
                        in_tile = false;
                        break;
                    }
                }
                if (in_tile)
                    ++plan.forwards;
                else
                    loads.insert(cell);
            }
        }
    }
    plan.loads = static_cast<int64_t>(loads.size());
    if (live_hint > 0 && plan.loads > live_hint)
        plan.loads = live_hint;

    // Pressure: one register per distinct loaded value, one
    // accumulator per copy, plus index/pointer overhead.
    plan.regs = plan.loads + plan.copies() + 2;
    return plan;
}

RegisterPlan
pickRegisterPlan(const std::vector<IVec> &dists, size_t depth,
                 int64_t available_regs, int64_t live_hint)
{
    UOV_REQUIRE(depth >= 1, "register plan needs depth >= 1");
    for (const IVec &d : dists)
        UOV_REQUIRE(d.dim() == depth,
                    "distance " << d.str() << " has dimension "
                                << d.dim() << ", nest depth is "
                                << depth);

    RegisterPlan best = evaluateRegisterPlan(dists, depth, 1, 1,
                                             live_hint);
    for (int64_t jam : {int64_t{1}, int64_t{2}, int64_t{4}}) {
        if (depth < 2 && jam > 1)
            continue;
        if (depth >= 2 && !jamLegal(dists, depth - 2, jam))
            continue;
        for (int64_t unroll :
             {int64_t{1}, int64_t{2}, int64_t{4}, int64_t{8}}) {
            RegisterPlan cand = evaluateRegisterPlan(
                dists, depth, jam, unroll, live_hint);
            if (cand.regs > available_regs)
                continue;
            double c = cand.loadsPerIter(), b = best.loadsPerIter();
            // Fewest loads per iteration; ties go to the smaller
            // body (less I-cache, cheaper remainders).
            if (c < b ||
                (c == b && cand.copies() < best.copies()) ||
                (c == b && cand.copies() == best.copies() &&
                 cand.forwards > best.forwards))
                best = cand;
        }
    }
    return best;
}

} // namespace uov
