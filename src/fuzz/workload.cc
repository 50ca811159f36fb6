#include "fuzz/workload.h"

#include "fuzz/oracles.h"
#include "support/rng.h"

namespace uov {
namespace fuzz {

std::vector<service::Request>
makeWorkload(const WorkloadOptions &opt)
{
    std::vector<service::Request> pool;
    SplitMix64 rng(opt.seed);
    while (pool.size() < opt.distinct) {
        FuzzCase c = makeCase(rng.next());
        if (!c.valid())
            continue;
        service::Request r;
        r.deps = c.deps;
        r.deadline_ms = opt.deadline_ms;
        if (pool.size() % 2 == 0) {
            r.objective = SearchObjective::BoundedStorage;
            r.isg_lo = c.lo;
            r.isg_hi = c.hi;
        } else {
            r.objective = SearchObjective::ShortestVector;
        }
        pool.push_back(std::move(r));
    }

    std::vector<service::Request> out;
    out.reserve(opt.requests);
    for (size_t i = 0; i < opt.requests; ++i) {
        service::Request r = pool[rng.nextBelow(pool.size())];
        r.index = i + 1;
        out.push_back(std::move(r));
    }
    return out;
}

} // namespace fuzz
} // namespace uov
