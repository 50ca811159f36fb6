/**
 * @file
 * Pluggable candidate evaluators for the joint autotuner.
 *
 * A TuneCandidate is one point of the joint (UOV, schedule, factors)
 * space: a storage discipline with its mapping plan plus a composed
 * ScheduleBuilder.  An Evaluator scores candidates (lower is better);
 * two implementations ship:
 *
 *  - SimEvaluator replays the candidate's emitted memory-access order
 *    through a sim/machine.h MemorySystem and returns modeled cycles.
 *    Fully deterministic -- a pure function of (nest, candidate,
 *    machine config) -- so it backs the service's byte-deterministic
 *    response prefix and the fuzz oracle's repeat-run check.
 *
 *  - JitEvaluator lowers candidates to CodegenOptions, compiles a set
 *    of them as one translation unit with the cached JitCompiler,
 *    verifies each kernel bit-exactly against the interpreter
 *    reference, and returns the median of k timed runs in
 *    nanoseconds.  Nondeterministic (wall clock), so its figures live
 *    in the _ns-exempt zone of response lines.  It is the one kernel
 *    measurement: 'query native' and bench_native_kernels time their
 *    kernels through its measureNative().
 */

#ifndef UOV_TUNE_EVALUATOR_H
#define UOV_TUNE_EVALUATOR_H

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "codegen/codegen.h"
#include "codegen/jit.h"
#include "schedule/builder.h"
#include "sim/machine.h"

namespace uov {
namespace tune {

/** One point of the joint (UOV, schedule, factors) search space. */
struct TuneCandidate
{
    ScheduleBuilder schedule;
    GenStorage storage = GenStorage::Expanded;
    /** Mapping plan for this candidate's UOV; shared across the
     *  schedule variants enumerated for the same vector. */
    std::shared_ptr<const MappingPlan> plan;

    /** The candidate's occupancy vector (the plan's mapping OV). */
    const IVec &uov() const { return plan->mapping.ov(); }

    /** Temporary-array cells this candidate allocates. */
    int64_t cells() const;

    /** Deterministic one-token-per-field description, e.g.
     *  "storage=ov uov=(1, 0) schedule=unroll(4);jam(2)". */
    std::string str() const;
};

/**
 * Per-nest evaluation state shared across candidates: the nest, its
 * stencil, and the lazily computed interpreter reference output the
 * JIT evaluator verifies against.
 */
class TuneContext
{
  public:
    TuneContext(const LoopNest &nest, const Stencil &stencil)
        : _nest(&nest), _stencil(&stencil)
    {}

    const LoopNest &nest() const { return *_nest; }
    const Stencil &stencil() const { return *_stencil; }

    /** interpretKernel(nest), computed once on first use. */
    const std::vector<double> &reference();

  private:
    const LoopNest *_nest;
    const Stencil *_stencil;
    std::optional<std::vector<double>> _ref;
};

/** Scores candidates; lower is better. */
class Evaluator
{
  public:
    virtual ~Evaluator() = default;

    /** Short tag for logs and bench tables. */
    virtual std::string name() const = 0;

    /**
     * Score one candidate.  @throws UovUserError when this backend
     * cannot evaluate the candidate (e.g. no native lowering);
     * UovError on internal failure (divergence, compile error).
     */
    virtual double score(TuneContext &ctx,
                         const TuneCandidate &cand) = 0;
};

/**
 * Cache/TLB cost model: replays the candidate's emitted iteration
 * order -- including the register-tiled body grouping, where reads
 * forwarded from an in-body write or coinciding with an already
 * loaded cell are free -- through a MemorySystem and returns cycles.
 */
class SimEvaluator : public Evaluator
{
  public:
    explicit SimEvaluator(
        MachineConfig machine = MachineConfig::ultra2())
        : _machine(std::move(machine))
    {}

    std::string name() const override { return "sim:" + _machine.name; }
    double score(TuneContext &ctx, const TuneCandidate &cand) override;

  private:
    MachineConfig _machine;
};

/**
 * Measurement backend: JIT-compile the lowered candidates, verify each
 * bit-exactly against the interpreter (a divergence throws -- the
 * tune fuzz oracle's contract), and return the median of `runs`
 * wall-clock timings in nanoseconds.
 */
struct JitEvalOptions
{
    int runs = 5; ///< timed runs per candidate (median taken)
};

/** What JitEvaluator::measureNative found for one nest. */
struct NativeMeasurement
{
    MappingPlan plan; ///< planStorageMapping(nest, 0)
    /** OvMapped iff ovMappingKeepsOutput(plan's OV), else Expanded. */
    GenStorage storage = GenStorage::Expanded;
    int64_t unroll = 1; ///< factors the register-tiled kernel emitted
    int64_t jam = 1;
    int64_t interp_ns = 0; ///< wall time of the one interpreter run
    int64_t lex_ns = 0;    ///< each kernel's score(): median of runs
    int64_t rtile_ns = 0;
};

class JitEvaluator : public Evaluator
{
  public:
    /** @throws UovUserError when no host compiler resolves */
    explicit JitEvaluator(JitEvalOptions options = {});

    std::string name() const override { return "jit"; }

    /** scoreAll(ctx, {cand}): one candidate's unit, compiled alone. */
    double score(TuneContext &ctx, const TuneCandidate &cand) override;

    /**
     * Score @p cands from one translation unit: emit every kernel,
     * bundle them (codegen's bundleUnits), compile and dlopen once,
     * then verify and time each kernel in order.  Returns one score
     * per candidate, in order.  @throws like score()
     */
    std::vector<double> scoreAll(TuneContext &ctx,
                                 const std::vector<TuneCandidate> &cands);

    /**
     * Measure @p nest as 'query native' reports it: plan its storage
     * mapping, emit the lexicographic kernel uov_native_lex and the
     * register-tiled uov_native_rtile (regcost factors) under the
     * plan's storage, time one interpreter reference run, then score
     * each kernel like score() -- its own translation unit, released
     * before the next one loads.  Planning and emitter errors throw
     * before the interpreter runs.  @p checkpoint, when set, is called
     * with "after the interpreter baseline" and then with "before JIT
     * compilation" ahead of each compile; it stops the measurement by
     * throwing.  @throws like score()
     */
    NativeMeasurement
    measureNative(const LoopNest &nest,
                  const std::function<void(const char *stage)>
                      &checkpoint = {});

    JitCompiler &compiler() { return _jit; }

  private:
    JitCompiler _jit;
    int _runs;
};

} // namespace tune
} // namespace uov

#endif // UOV_TUNE_EVALUATOR_H
