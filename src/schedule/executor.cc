#include "schedule/executor.h"

#include "geometry/box.h"
#include "geometry/polyhedron.h"
#include "support/error.h"

namespace uov {

namespace {

/** SplitMix64-style avalanche; the executor's mixing primitive. */
uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
hashPoint(const IVec &q)
{
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (size_t c = 0; c < q.dim(); ++c)
        h = mix64(h ^ (static_cast<uint64_t>(q[c]) + 0xabcdef123ULL * c));
    return h;
}

} // namespace

StencilComputation::StencilComputation(Stencil s)
    : stencil(std::move(s)),
      boundary([](const IVec &p) { return hashPoint(p); })
{
}

StencilComputation::StencilComputation(Stencil s, BoundaryFn b)
    : stencil(std::move(s)), boundary(std::move(b))
{
    UOV_REQUIRE(boundary, "null boundary function");
}

uint64_t
StencilComputation::combine(const IVec &q,
                            const std::vector<uint64_t> &inputs) const
{
    UOV_CHECK(inputs.size() == stencil.size(),
              "combine expects one input per dependence");
    uint64_t acc = hashPoint(q);
    for (uint64_t in : inputs)
        acc = mix64(acc ^ in);
    return acc;
}

ExpandedArray<uint64_t>
computeReference(const StencilComputation &comp, const IVec &lo,
                 const IVec &hi)
{
    ExpandedArray<uint64_t> values(lo, hi);
    std::vector<uint64_t> inputs(comp.stencil.size());
    scanBox(lo, hi, [&](const IVec &q) {
        for (size_t i = 0; i < comp.stencil.size(); ++i) {
            IVec p = q - comp.stencil.dep(i);
            inputs[i] = inBox(p, lo, hi) ? values.at(p)
                                         : comp.boundary(p);
        }
        values.at(q) = comp.combine(q, inputs);
    });
    return values;
}

ExecutionResult
runWithOvStorage(const StencilComputation &comp, const Schedule &schedule,
                 const IVec &lo, const IVec &hi, const IVec &ov,
                 ModLayout layout)
{
    ExpandedArray<uint64_t> ref = computeReference(comp, lo, hi);

    StorageMapping sm =
        StorageMapping::create(ov, Polyhedron::box(lo, hi), layout);
    CheckedOVArray<uint64_t> store(std::move(sm));

    ExecutionResult result;
    result.schedule_name = schedule.name();

    std::vector<uint64_t> inputs(comp.stencil.size());
    schedule.forEach(lo, hi, [&](const IVec &q) {
        for (size_t i = 0; i < comp.stencil.size(); ++i) {
            IVec p = q - comp.stencil.dep(i);
            inputs[i] = inBox(p, lo, hi) ? store.read(q, p)
                                         : comp.boundary(p);
        }
        uint64_t value = comp.combine(q, inputs);
        store.write(q, value);
        ++result.points;
        result.checksum += value; // commutative fold
        if (value != ref.at(q))
            ++result.mismatches;
    });
    result.clobbers = store.violations().size();
    return result;
}

ExecutionResult
runWithExpandedStorage(const StencilComputation &comp,
                       const Schedule &schedule, const IVec &lo,
                       const IVec &hi)
{
    ExpandedArray<uint64_t> ref = computeReference(comp, lo, hi);
    ExpandedArray<uint64_t> store(lo, hi);

    ExecutionResult result;
    result.schedule_name = schedule.name();

    std::vector<uint64_t> inputs(comp.stencil.size());
    schedule.forEach(lo, hi, [&](const IVec &q) {
        for (size_t i = 0; i < comp.stencil.size(); ++i) {
            IVec p = q - comp.stencil.dep(i);
            inputs[i] = inBox(p, lo, hi) ? store.at(p)
                                         : comp.boundary(p);
        }
        uint64_t value = comp.combine(q, inputs);
        store.at(q) = value;
        ++result.points;
        result.checksum += value;
        if (value != ref.at(q))
            ++result.mismatches;
    });
    return result;
}

} // namespace uov
