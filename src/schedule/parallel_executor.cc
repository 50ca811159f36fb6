#include "schedule/parallel_executor.h"

#include <atomic>
#include <map>

#include "geometry/box.h"
#include "schedule/legality.h"
#include "support/error.h"
#include "support/thread_pool.h"

namespace uov {

ParallelExecutionResult
runParallelWavefront(const StencilComputation &comp, const IVec &lo,
                     const IVec &hi, const IVec &h, const IVec &ov,
                     unsigned threads, ModLayout layout)
{
    UOV_REQUIRE(threads >= 1, "need at least one thread");
    UOV_REQUIRE(wavefrontLegal(h, comp.stencil),
                "h = " << h.str() << " is not a legal wavefront for "
                       << comp.stencil.str());

    ExpandedArray<uint64_t> ref = computeReference(comp, lo, hi);

    StorageMapping sm =
        StorageMapping::create(ov, Polyhedron::box(lo, hi), layout);
    OVArray<uint64_t> store(std::move(sm));

    // Bucket the points by wave.
    std::map<int64_t, std::vector<IVec>> waves;
    scanBox(lo, hi, [&](const IVec &q) { waves[h.dot(q)].push_back(q); });

    ParallelExecutionResult result;
    result.threads = threads;
    result.waves = static_cast<int64_t>(waves.size());

    std::atomic<uint64_t> mismatches{0};
    std::atomic<uint64_t> points{0};

    for (const auto &[wave, pts] : waves) {
        (void)wave;
        auto worker = [&](size_t begin, size_t end) {
            std::vector<uint64_t> inputs(comp.stencil.size());
            for (size_t i = begin; i < end; ++i) {
                const IVec &q = pts[i];
                for (size_t k = 0; k < comp.stencil.size(); ++k) {
                    IVec p = q - comp.stencil.dep(k);
                    inputs[k] = inBox(p, lo, hi) ? store.at(p)
                                                 : comp.boundary(p);
                }
                uint64_t value = comp.combine(q, inputs);
                store.at(q) = value;
                points.fetch_add(1, std::memory_order_relaxed);
                if (value != ref.at(q))
                    mismatches.fetch_add(1,
                                         std::memory_order_relaxed);
            }
        };

        // Waves are often small; dispatching chunks to the shared
        // persistent pool avoids paying a thread spawn + join per
        // wave.  parallelFor blocks until the wave is done -- the
        // inter-wave barrier.
        ThreadPool::shared().parallelFor(pts.size(), threads, worker);
    }

    result.points = points.load();
    result.mismatches = mismatches.load();
    return result;
}

} // namespace uov
