#include "tune/evaluator.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>
#include <unordered_set>

#include "geometry/box.h"
#include "support/error.h"
#include "support/trace.h"

namespace uov {
namespace tune {

int64_t
TuneCandidate::cells() const
{
    return storage == GenStorage::OvMapped ? plan->mapping.cellCount()
                                           : plan->expanded_cells;
}

std::string
TuneCandidate::str() const
{
    std::ostringstream oss;
    oss << "storage="
        << (storage == GenStorage::OvMapped ? "ov" : "expanded");
    if (storage == GenStorage::OvMapped)
        oss << " uov=" << plan->mapping.ov().str();
    oss << " schedule=" << schedule.str();
    return oss.str();
}

const std::vector<double> &
TuneContext::reference()
{
    if (!_ref) {
        TRACE_SPAN("tune.reference");
        _ref = interpretKernel(*_nest);
    }
    return *_ref;
}

namespace {

/**
 * Streams one candidate's accesses through a MemorySystem with the
 * emitted body grouping: within a group (one register-tiled body),
 * reads forwarded from an already executed in-group write are free,
 * repeated reads of one cell share a load, and the group costs one
 * loop branch.
 */
class AccessStream
{
  public:
    AccessStream(MemorySystem &mem, const TuneCandidate &cand,
                 const std::vector<IVec> &deps, const IVec &lo,
                 const IVec &hi)
        : _mem(mem), _cand(cand), _deps(deps), _box(lo, hi),
          _ov(cand.storage == GenStorage::OvMapped)
    {
    }

    void
    point(const IVec &q)
    {
        _group.push_back(q);
    }

    void
    flush()
    {
        if (_group.empty())
            return;
        _loaded.clear();
        _executed.clear();
        for (const IVec &q : _group) {
            for (const IVec &v : _deps) {
                IVec src = q - v;
                if (!inBox(src, _box.lo(), _box.hi())) {
                    // Boundary value: computed arithmetically by the
                    // generated bval(), no memory traffic.
                    _mem.compute(1.0);
                    continue;
                }
                if (_executed.count(_box.index(src)) != 0)
                    continue; // forwarded through a register
                int64_t cell = cellOf(src);
                if (_loaded.insert(cell).second)
                    _mem.access(static_cast<uint64_t>(cell) * 8, false);
            }
            _mem.access(static_cast<uint64_t>(cellOf(q)) * 8, true);
            _executed.insert(_box.index(q));
            // The add chain: one flop per read plus the store issue.
            _mem.compute(1.0 +
                         0.5 * static_cast<double>(_deps.size()));
        }
        _mem.branch();
        _group.clear();
    }

  private:
    /** @pre q lies in the box */
    int64_t
    cellOf(const IVec &q) const
    {
        return _ov ? _cand.plan->mapping(q) : _box.index(q);
    }

    MemorySystem &_mem;
    const TuneCandidate &_cand;
    const std::vector<IVec> &_deps;
    BoxLayout _box; ///< expanded storage; also names executed points
    bool _ov;
    std::vector<IVec> _group;
    std::set<int64_t> _loaded;
    std::unordered_set<int64_t> _executed;
};

/**
 * Replay the exact register-tiled emission order (codegen.cc
 * emitRegisterTiled): main jam blocks of J x U copies, an unroll
 * remainder of J x 1 groups, then a jam remainder of 1 x U and 1 x 1
 * groups.  Copies execute innermost-offset-major, jam-offset minor.
 */
void
replayRegisterTiled(AccessStream &stream, const IVec &lo,
                    const IVec &hi, int64_t jam, int64_t unroll)
{
    size_t d = lo.dim();
    size_t u = d - 1;
    size_t j = d >= 2 ? d - 2 : 0;

    auto innerLoops = [&](IVec &q, int64_t copies) {
        for (int64_t qu = lo[u]; qu + unroll - 1 <= hi[u];
             qu += unroll) {
            for (int64_t b = 0; b < unroll; ++b)
                for (int64_t a = 0; a < copies; ++a) {
                    if (d >= 2)
                        q[j] += a;
                    q[u] = qu + b;
                    stream.point(q);
                    if (d >= 2)
                        q[j] -= a;
                }
            stream.flush();
        }
        int64_t rem_from =
            lo[u] + ((hi[u] - lo[u] + 1) / unroll) * unroll;
        for (int64_t qu = rem_from; qu <= hi[u]; ++qu) {
            for (int64_t a = 0; a < copies; ++a) {
                if (d >= 2)
                    q[j] += a;
                q[u] = qu;
                stream.point(q);
                if (d >= 2)
                    q[j] -= a;
            }
            stream.flush();
        }
    };

    auto jamLoops = [&](IVec &q) {
        if (d == 1) {
            innerLoops(q, 1);
            return;
        }
        int64_t qj = lo[j];
        for (; qj + jam - 1 <= hi[j]; qj += jam) {
            q[j] = qj;
            innerLoops(q, jam);
        }
        for (; qj <= hi[j]; ++qj) {
            q[j] = qj;
            innerLoops(q, 1);
        }
    };

    // Plain lexicographic scan over dims 0..d-3; the jam and unroll
    // loops set the last two.
    IVec outer_hi = hi;
    for (size_t k = j; k < d; ++k)
        outer_hi[k] = lo[k];
    scanBox(lo, outer_hi, [&](const IVec &outer) {
        IVec q = outer;
        jamLoops(q);
    });
}

} // namespace

double
SimEvaluator::score(TuneContext &ctx, const TuneCandidate &cand)
{
    TRACE_SPAN("tune.sim_score");
    const LoopNest &nest = ctx.nest();
    const IVec &lo = nest.lo();
    const IVec &hi = nest.hi();
    const std::vector<IVec> &deps = ctx.stencil().deps();

    MemorySystem mem(_machine);
    AccessStream stream(mem, cand, deps, lo, hi);

    auto lowered = cand.schedule.lower(ctx.stencil());
    if (lowered && lowered->form == GenSchedule::RegisterTiled) {
        replayRegisterTiled(stream, lo, hi,
                            std::max<int64_t>(lowered->jam, 1),
                            std::max<int64_t>(lowered->unroll, 1));
    } else {
        // Everything else visits points one per body; the builder's
        // Schedule object supplies the order (lex, skewed, tiled,
        // reordered) exactly as the empirical legality oracle sees it.
        auto schedule = cand.schedule.buildSchedule();
        schedule->forEach(lo, hi, [&](const IVec &q) {
            stream.point(q);
            stream.flush();
        });
    }
    stream.flush();
    return mem.cycles();
}

namespace {

/** @p cand's emitter options.  @throws UovUserError when its schedule
 *  has no native lowering */
CodegenOptions
lowerForJit(const Stencil &stencil, const TuneCandidate &cand)
{
    auto lowered = cand.schedule.lower(stencil);
    UOV_REQUIRE(lowered.has_value(),
                "tune JIT evaluator: schedule '"
                    << cand.schedule.str()
                    << "' has no native lowering (simulator only)");

    CodegenOptions opts;
    opts.schedule = lowered->form;
    opts.storage = cand.storage;
    opts.tile_sizes = lowered->tile_sizes;
    opts.unroll = lowered->unroll;
    opts.jam = lowered->jam;
    opts.function_name = "uov_tune_kernel";
    return opts;
}

/** Verify @p fn bit-exactly against @p ref (a divergence, reported
 *  under @p label, throws), then return the median of @p runs timings
 *  in nanoseconds. */
double
measureKernel(void (*fn)(double *), const std::vector<double> &ref,
              const std::string &label, int runs)
{
    std::vector<double> out(ref.size(), 0.0);
    fn(out.data());
    UOV_CHECK(out == ref, label << " diverged from the interpreter");

    // Small kernels finish in microseconds, where a single call is
    // mostly clock noise; amortize by looping each sample until it
    // spans ~100 us (the verification call above doubles as warmup
    // and sizes the repetition count).
    auto t0 = std::chrono::steady_clock::now();
    fn(out.data());
    auto t1 = std::chrono::steady_clock::now();
    int64_t once =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count();
    int64_t iters = once > 0 ? 100'000 / once : 1000;
    iters = std::max<int64_t>(1, std::min<int64_t>(iters, 1000));

    std::vector<int64_t> ns(static_cast<size_t>(runs));
    for (int r = 0; r < runs; ++r) {
        auto s0 = std::chrono::steady_clock::now();
        for (int64_t i = 0; i < iters; ++i)
            fn(out.data());
        auto s1 = std::chrono::steady_clock::now();
        ns[static_cast<size_t>(r)] =
            std::chrono::duration_cast<std::chrono::nanoseconds>(s1 -
                                                                 s0)
                .count() /
            iters;
    }
    std::sort(ns.begin(), ns.end());
    int64_t median = ns[ns.size() / 2];
    return static_cast<double>(median < 1 ? 1 : median);
}

/**
 * The one kernel measurement: compile @p units as one translation
 * unit and dlopen it once, then verify and time each kernel against
 * ctx's reference (measureKernel; @p labels[i] names unit i).  The
 * object is released on return.
 */
std::vector<double>
scoreUnits(JitCompiler &jit, TuneContext &ctx,
           const std::vector<GeneratedCode> &units,
           const std::vector<std::string> &labels, int runs)
{
    CodeBundle bundle = bundleUnits(units);
    JitKernel kernel = jit.load(jit.compile(bundle.source));
    const std::vector<double> &ref = ctx.reference();
    std::vector<double> scores;
    for (size_t i = 0; i < units.size(); ++i)
        scores.push_back(measureKernel(
            kernel.fn<void (*)(double *)>(bundle.symbols[i]), ref,
            labels[i], runs));
    return scores;
}

} // namespace

JitEvaluator::JitEvaluator(JitEvalOptions options)
    : _runs(options.runs < 1 ? 1 : options.runs)
{
    UOV_REQUIRE(_jit.available(),
                "tune JIT evaluator needs a host C compiler (set "
                "UOV_CC or put cc, gcc, or clang on PATH)");
}

double
JitEvaluator::score(TuneContext &ctx, const TuneCandidate &cand)
{
    return scoreAll(ctx, {cand}).front();
}

std::vector<double>
JitEvaluator::scoreAll(TuneContext &ctx,
                       const std::vector<TuneCandidate> &cands)
{
    TRACE_SPAN("tune.jit_score");
    std::vector<GeneratedCode> units;
    std::vector<std::string> labels;
    for (const TuneCandidate &cand : cands) {
        units.push_back(generateC(ctx.nest(), *cand.plan,
                                  lowerForJit(ctx.stencil(), cand)));
        labels.push_back("tune candidate {" + cand.str() + "}");
    }
    return scoreUnits(_jit, ctx, units, labels, _runs);
}

NativeMeasurement
JitEvaluator::measureNative(
    const LoopNest &nest,
    const std::function<void(const char *stage)> &checkpoint)
{
    auto reach = [&](const char *stage) {
        if (checkpoint)
            checkpoint(stage);
    };
    MappingPlan plan = planStorageMapping(nest, 0);
    GenStorage storage = ovMappingKeepsOutput(plan.mapping.ov())
                             ? GenStorage::OvMapped
                             : GenStorage::Expanded;
    CodegenOptions opts;
    opts.storage = storage;
    opts.function_name = "uov_native_lex";
    GeneratedCode lex = generateC(nest, plan, opts);
    opts.schedule = GenSchedule::RegisterTiled;
    opts.function_name = "uov_native_rtile";
    GeneratedCode rtile = generateC(nest, plan, opts);

    TuneContext ctx(nest, plan.stencil);
    auto t0 = std::chrono::steady_clock::now();
    ctx.reference();
    int64_t interp_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    reach("after the interpreter baseline");

    auto score = [&](const GeneratedCode &unit) {
        reach("before JIT compilation");
        return static_cast<int64_t>(
            scoreUnits(_jit, ctx, {unit},
                       {"native kernel " + unit.function_name}, _runs)
                .front());
    };
    int64_t lex_ns = score(lex);
    int64_t rtile_ns = score(rtile);
    return {std::move(plan), storage, rtile.unroll, rtile.jam,
            interp_ns, lex_ns, rtile_ns};
}

} // namespace tune
} // namespace uov
