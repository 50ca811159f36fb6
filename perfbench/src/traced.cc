/**
 * @file
 * The traced run: the same requests as a timed pass, but the benchmark
 * calls each layer's public functions itself, in the order
 * QueryService::query, runNativeRequest and runTuneRequest use them,
 * and times every call.  Each call is a support/trace span, exported
 * as Chrome-trace JSON; self time is a span's duration minus its
 * children's.  The traced responses must match the untraced ones byte
 * for byte (up to the wall-clock _ns fields) and the untimed
 * reference, and the run reports its own overhead against an
 * untraced pass over the same requests.
 */

#include <functional>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>

#include "bench.h"
#include "codegen/codegen.h"
#include "codegen/jit.h"
#include "core/uov.h"
#include "geometry/polyhedron.h"
#include "support/error.h"
#include "support/trace.h"
#include "tune/tune.h"

namespace perfbench {

using namespace uov;
using namespace uov::service;

namespace {

/** Events per thread buffer: a whole traced pass fits, none drop. */
constexpr size_t kTraceCapacity = size_t{1} << 18;

/** Self time and call counts per layer call. */
class Layers
{
  public:
    /** Times one call; also a support/trace span of the same name. */
    class Scope
    {
      public:
        Scope(Layers &layers, const char *name)
            : _layers(layers), _name(name)
        {
            trace::begin(name);
            _layers._child_ns.push_back(0);
            _start = Clock::now();
        }

        ~Scope()
        {
            int64_t ns = std::chrono::duration_cast<
                             std::chrono::nanoseconds>(Clock::now() -
                                                       _start)
                             .count();
            int64_t children = _layers._child_ns.back();
            _layers._child_ns.pop_back();
            if (!_layers._child_ns.empty())
                _layers._child_ns.back() += ns;
            Stat &stat = _layers._stats[_name];
            ++stat.calls;
            stat.self_ns += ns - children;
            trace::end(_name);
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Layers &_layers;
        const char *_name;
        Clock::time_point _start;
    };

    double
    calls(const std::string &name) const
    {
        auto it = _stats.find(name);
        return it == _stats.end() ? 0
                                  : static_cast<double>(it->second.calls);
    }

    double
    selfMs(const std::string &name) const
    {
        auto it = _stats.find(name);
        return it == _stats.end()
                   ? 0
                   : static_cast<double>(it->second.self_ns) / 1e6;
    }

    /** Mean self time per call in @p scale units of a millisecond. */
    double
    perCall(const std::string &name, double scale = 1) const
    {
        double n = calls(name);
        return n == 0 ? 0 : selfMs(name) * scale / n;
    }

  private:
    struct Stat
    {
        uint64_t calls = 0;
        int64_t self_ns = 0;
    };
    std::map<std::string, Stat> _stats;
    std::vector<int64_t> _child_ns;
};

using Scope = Layers::Scope;

/** Counts the traced run gathers besides span times. */
struct Tally
{
    double requests = 0;
    double canon_removed = 0;
    double cache_hits = 0;
    double searches = 0;
    double nodes = 0;
    double nodes_to_best = 0;
    double arena_bytes = 0;
    double budget_hits = 0;
    double cells_ratio = 0;
    double source_bytes = 0;
    double compiles = 0;
    double tunes = 0;
    double evaluated = 0;
    double candidates = 0;
    double tune_nodes = 0;
    double tune_nodes_max = 0;
    double lowerable = 0;
    double lowerable_checked = 0;
    std::vector<double> lex_ns_per_point, rtile_ns_per_point,
        best_ns_per_point;
};

/** What QueryService holds, driven by hand, with its default sizes. */
struct Stack
{
    MetricsRegistry metrics;
    ResultCache cache{ServiceOptions{}.cache_bytes,
                      ServiceOptions{}.cache_shards, &metrics};
    std::unique_ptr<ResultStore> store;
};

/** Open the store and preload the cache, as QueryService does. */
void
openStore(Layers &layers, Stack &stack, const fs::path &path)
{
    Scope scope(layers, "service.store.preload");
    stack.store = std::make_unique<ResultStore>(path.string(),
                                                &stack.metrics);
    stack.store->preload(stack.cache);
}

std::string
errorLine(size_t index, const std::string &message)
{
    return "error " + std::to_string(index) + " " + message;
}

ServiceAnswer
tracedSearch(Layers &layers, Tally &tally, Stack &stack,
             const Stencil &canonical, const Request &request,
             const CanonicalKey &key)
{
    SearchOptions options;
    options.budget.max_nodes = kNodeBudget;
    options.budget.deadline = Deadline::afterMillis(request.deadline_ms);
    if (request.objective == SearchObjective::BoundedStorage)
        options.isg = Polyhedron::box(*request.isg_lo, *request.isg_hi);
    BranchBoundSearch search(canonical, request.objective, options);
    SearchResult result;
    {
        Scope scope(layers, "core.search");
        result = search.run();
    }
    tally.searches += 1;
    tally.nodes += static_cast<double>(result.stats.visited);
    tally.nodes_to_best += static_cast<double>(result.stats.visits_to_best);
    tally.arena_bytes += static_cast<double>(result.stats.arena_bytes);
    if (result.degraded_reason == "node-budget")
        tally.budget_hits += 1;

    ServiceAnswer answer;
    answer.best_uov = result.best_uov;
    answer.best_objective = result.best_objective;
    answer.initial_objective = result.initial_objective;
    answer.canonical_deps = canonical.size();
    answer.degraded = result.degraded();
    answer.degraded_reason = result.degraded_reason;
    {
        Scope scope(layers, "core.certify");
        UovOracle oracle(search.memo());
        auto cert = oracle.certify(result.best_uov);
        UOV_CHECK(cert.has_value(), "search result failed certification");
        answer.cert = std::move(cert->rows);
    }
    {
        Scope scope(layers, "service.cache.insert");
        stack.cache.insert(key, answer);
    }
    if (stack.store) {
        Scope scope(layers, "service.store.append");
        stack.store->append(key, answer);
    }
    return answer;
}

std::string
tracedSolve(Layers &layers, Tally &tally, Stack &stack,
            const Request &request)
{
    try {
        Stencil stencil(request.deps);
        Stencil canonical = [&] {
            Scope scope(layers, "service.canonicalize");
            return canonicalizeStencil(stencil);
        }();
        tally.canon_removed +=
            static_cast<double>(stencil.size() - canonical.size());
        CanonicalKey key =
            makeKey(canonical, request.objective, request.isg_lo,
                    request.isg_hi, request.deadline_ms);
        std::optional<ServiceAnswer> answer;
        {
            Scope scope(layers, "service.cache.lookup");
            answer = stack.cache.lookup(key);
        }
        if (answer)
            tally.cache_hits += 1;
        if (!answer && stack.store) {
            Scope scope(layers, "service.store.lookup");
            answer = stack.store->lookup(key);
            if (answer)
                stack.cache.insert(key, *answer);
        }
        if (!answer)
            answer = tracedSearch(layers, tally, stack, canonical,
                                  request, key);
        Scope scope(layers, "service.render");
        return "answer " + std::to_string(request.index) + " " +
               answer->str();
    } catch (const UovUserError &e) {
        return errorLine(request.index, e.what());
    } catch (const UovOverflowError &e) {
        return errorLine(request.index, e.what());
    }
}

/** Best-of-3 nanoseconds, each call its own span (runNativeRequest's
 *  timing rule). */
int64_t
bestOfThree(Layers &layers, const char *span,
            const std::function<void()> &fn)
{
    int64_t best = std::numeric_limits<int64_t>::max();
    for (int rep = 0; rep < 3; ++rep) {
        Scope scope(layers, span);
        auto t0 = Clock::now();
        fn();
        best = std::min<int64_t>(
            best, std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - t0)
                      .count());
    }
    return best < 1 ? 1 : best;
}

std::string
tracedNative(Layers &layers, Tally &tally, const Request &request)
{
    std::ostringstream oss;
    try {
        Stencil stencil(request.deps);
        UOV_REQUIRE(JitCompiler::hostCompilerAvailable(),
                    "native query needs a host C compiler");
        LoopNest nest = nestFromStencil(stencil, *request.isg_lo,
                                        *request.isg_hi, "native");
        MappingPlan plan = [&] {
            Scope scope(layers, "analysis.plan");
            return planStorageMapping(nest, 0);
        }();
        tally.cells_ratio += static_cast<double>(plan.mapping.cellCount()) /
                             static_cast<double>(plan.expanded_cells);
        GenStorage storage = plan.mapping.ov()[0] >= 1
                                 ? GenStorage::OvMapped
                                 : GenStorage::Expanded;

        std::vector<double> ref;
        int64_t interp_ns = bestOfThree(layers, "kernels.interp",
                                        [&] { ref = interpretKernel(nest); });

        JitCompiler jit;
        GeneratedCode lex_code, rtile_code;
        {
            CodegenOptions opts;
            opts.storage = storage;
            opts.function_name = "uov_native_lex";
            {
                Scope scope(layers, "codegen.emit");
                lex_code = generateC(nest, plan, opts);
            }
            opts.schedule = GenSchedule::RegisterTiled;
            opts.function_name = "uov_native_rtile";
            Scope scope(layers, "codegen.emit");
            rtile_code = generateC(nest, plan, opts);
        }
        tally.source_bytes += static_cast<double>(
            lex_code.source.size() + rtile_code.source.size());

        auto timeKernel = [&](const GeneratedCode &code) {
            std::string so;
            {
                Scope scope(layers, "codegen.cc");
                so = jit.compile(code.source);
            }
            JitKernel kernel;
            {
                Scope scope(layers, "codegen.dlopen");
                kernel = jit.load(so);
            }
            auto fn = kernel.fn<void (*)(double *)>(code.function_name);
            std::vector<double> out(ref.size(), 0.0);
            int64_t ns = bestOfThree(layers, "kernels.run",
                                     [&] { fn(out.data()); });
            UOV_REQUIRE(out == ref, "native kernel "
                                        << code.function_name
                                        << " diverged from the interpreter");
            return ns;
        };
        int64_t lex_ns = timeKernel(lex_code);
        int64_t rtile_ns = timeKernel(rtile_code);
        tally.compiles += static_cast<double>(jit.compilesInvoked());
        double points = static_cast<double>(plan.expanded_cells);
        tally.lex_ns_per_point.push_back(static_cast<double>(lex_ns) /
                                         points);
        tally.rtile_ns_per_point.push_back(
            static_cast<double>(rtile_ns) / points);

        oss << "answer " << request.index << " native uov="
            << plan.mapping.ov().str()
            << " cells=" << plan.mapping.cellCount() << " storage="
            << (storage == GenStorage::OvMapped ? "ov" : "expanded")
            << " unroll=" << rtile_code.unroll
            << " jam=" << rtile_code.jam << std::fixed
            << std::setprecision(2) << " interp_ns=" << interp_ns
            << " lex_ns=" << lex_ns << " rtile_ns=" << rtile_ns
            << " speedup_lex="
            << static_cast<double>(interp_ns) / static_cast<double>(lex_ns)
            << " speedup_rtile="
            << static_cast<double>(interp_ns) /
                   static_cast<double>(rtile_ns)
            << " verified=ok";
    } catch (const UovError &e) {
        return errorLine(request.index, e.what());
    }
    return oss.str();
}

/** The tuner's default simulator, each score() call a span. */
class TimedSim : public tune::Evaluator
{
  public:
    explicit TimedSim(Layers &layers) : _layers(layers) {}

    std::string name() const override { return _sim.name(); }

    double
    score(tune::TuneContext &ctx, const tune::TuneCandidate &cand) override
    {
        Scope scope(_layers, "sim.score");
        return _sim.score(ctx, cand);
    }

  private:
    Layers &_layers;
    tune::SimEvaluator _sim;
};

/**
 * JitEvaluator::score, with its compile pulled out in front: the
 * candidate's source is generated and compiled first with the same
 * options score() uses, so score() finds the object in the cache and
 * the cc time is a layer of its own.
 */
double
measureCandidate(Layers &layers, tune::JitEvaluator &jit_eval,
                 tune::TuneContext &ctx, const tune::TuneCandidate &cand)
{
    auto lowered = cand.schedule.lower(ctx.stencil());
    if (lowered) {
        CodegenOptions opts;
        switch (lowered->form) {
        case LoweredForm::Lexicographic:
            opts.schedule = GenSchedule::Lexicographic;
            break;
        case LoweredForm::SkewedTiled:
            opts.schedule = GenSchedule::SkewedTiled;
            break;
        case LoweredForm::RegisterTiled:
            opts.schedule = GenSchedule::RegisterTiled;
            break;
        }
        opts.storage = cand.storage;
        opts.tile_sizes = lowered->tile_sizes;
        opts.unroll = lowered->unroll;
        opts.jam = lowered->jam;
        opts.function_name = "uov_tune_kernel";
        GeneratedCode code;
        {
            Scope scope(layers, "codegen.emit");
            code = generateC(ctx.nest(), *cand.plan, opts);
        }
        Scope scope(layers, "codegen.cc");
        jit_eval.compiler().compile(code.source);
    }
    Scope scope(layers, "tune.measure");
    return jit_eval.score(ctx, cand);
}

std::string
tracedTune(Layers &layers, Tally &tally, const Request &request,
           int64_t points)
{
    std::ostringstream oss;
    try {
        Stencil stencil(request.deps);
        LoopNest nest = nestFromStencil(stencil, *request.isg_lo,
                                        *request.isg_hi, "tune");
        tune::TuneOptions topt;
        topt.budget.deadline = Deadline::afterMillis(request.deadline_ms);
        TimedSim sim(layers);
        topt.evaluator = &sim;
        tune::Tuner tuner(nest, topt);
        tune::TuneResult res;
        {
            Scope scope(layers, "tune.run");
            res = tuner.run();
        }
        double nodes = static_cast<double>(res.uov_shortest.stats.visited +
                                           res.uov_storage.stats.visited);
        tally.tunes += 1;
        tally.evaluated += static_cast<double>(res.evaluated);
        tally.candidates += static_cast<double>(res.candidates_total);
        tally.tune_nodes += nodes;
        tally.tune_nodes_max = std::max(tally.tune_nodes_max, nodes);

        const tune::TuneCandidate &best = res.best;
        bool ov = best.storage == GenStorage::OvMapped;
        oss << "answer " << request.index << " tune uov="
            << (ov ? best.uov().str() : "none") << " storage="
            << (ov ? "ov" : "expanded")
            << " schedule=" << best.schedule.str()
            << " cells=" << best.cells() << " sim_cycles="
            << static_cast<int64_t>(res.best_score)
            << " evaluated=" << res.evaluated << "/"
            << res.candidates_total;
        if (res.degraded())
            oss << " degraded=" << res.degraded_reason;
        if (!JitCompiler::hostCompilerAvailable()) {
            oss << " measure=unavailable";
            return oss.str();
        }

        tune::JitEvaluator jit_eval;
        tune::TuneContext ctx(nest, tuner.stencil());
        const auto &cands = tuner.candidates();
        const auto &scores = tuner.scores();
        double lex_ns = measureCandidate(layers, jit_eval, ctx, cands[0]);
        std::vector<size_t> ranked;
        for (size_t i = 0; i < scores.size(); ++i) {
            bool lowerable = false;
            {
                Scope scope(layers, "schedule.lower");
                lowerable = cands[i].schedule.lower(stencil).has_value();
            }
            tally.lowerable_checked += 1;
            if (lowerable) {
                tally.lowerable += 1;
                ranked.push_back(i);
            }
        }
        std::stable_sort(ranked.begin(), ranked.end(),
                         [&](size_t a, size_t b) {
                             return scores[a] < scores[b];
                         });
        double best_ns = lex_ns;
        size_t best_idx = 0;
        size_t measured = 0;
        for (size_t idx : ranked) {
            if (measured >= 4)
                break;
            if (idx == 0)
                continue;
            double ns = measureCandidate(layers, jit_eval, ctx, cands[idx]);
            ++measured;
            if (ns < best_ns) {
                best_ns = ns;
                best_idx = idx;
            }
        }
        tally.compiles +=
            static_cast<double>(jit_eval.compiler().compilesInvoked());
        tally.best_ns_per_point.push_back(best_ns /
                                          static_cast<double>(points));
        oss << std::fixed << std::setprecision(2)
            << " lex_ns=" << static_cast<int64_t>(lex_ns)
            << " best_ns=" << static_cast<int64_t>(best_ns)
            << " speedup_vs_lex=" << lex_ns / best_ns
            << " best_measured={" << cands[best_idx].str() << "}"
            << " verified=ok";
    } catch (const UovError &e) {
        return errorLine(request.index, e.what());
    }
    return oss.str();
}

/** Per-layer metrics, every one on every workload (0 = not used). */
void
addLayerMetrics(Outcome &out, const Layers &layers, const Tally &t,
                double overhead)
{
    auto per = [](double a, double b) { return b == 0 ? 0 : a / b; };
    double lookups = layers.calls("service.cache.lookup");
    double search_s = layers.selfMs("core.search") / 1e3;
    out.metrics = {
        {"service.parse_us", layers.perCall("service.parse", 1e3), "us"},
        {"service.canonicalize_us",
         layers.perCall("service.canonicalize", 1e3), "us"},
        {"service.canonicalize_removed",
         per(t.canon_removed, layers.calls("service.canonicalize")),
         "count"},
        {"service.cache.lookup_us",
         layers.perCall("service.cache.lookup", 1e3), "us"},
        {"service.cache.hit_ratio", per(t.cache_hits, lookups), "frac"},
        {"service.cache.insert_us",
         layers.perCall("service.cache.insert", 1e3), "us"},
        {"service.store.append_us",
         layers.perCall("service.store.append", 1e3), "us"},
        {"service.store.preload_ms", layers.selfMs("service.store.preload"),
         "ms"},
        {"service.render_us", layers.perCall("service.render", 1e3), "us"},
        {"core.search_ms", layers.perCall("core.search"), "ms"},
        {"core.search.nodes", per(t.nodes, t.searches), "count"},
        {"core.search.nodes_per_s", per(t.nodes, search_s), "1/s"},
        {"core.search.arena_kib", per(t.arena_bytes, t.searches) / 1024,
         "KiB"},
        {"core.search.budget_hit_ratio", per(t.budget_hits, t.searches),
         "frac"},
        {"core.search.useful_ratio", per(t.nodes_to_best, t.nodes), "frac"},
        {"core.certify_us", layers.perCall("core.certify", 1e3), "us"},
        {"analysis.plan_ms", layers.perCall("analysis.plan"), "ms"},
        {"mapping.cells_ratio",
         per(t.cells_ratio, layers.calls("analysis.plan")), "frac"},
        {"codegen.emit_us", layers.perCall("codegen.emit", 1e3), "us"},
        {"codegen.source_bytes",
         per(t.source_bytes, layers.calls("codegen.emit")), "B"},
        {"codegen.cc_ms", layers.perCall("codegen.cc"), "ms"},
        {"codegen.jit.compiles", per(t.compiles, t.requests), "count"},
        {"codegen.dlopen_us", layers.perCall("codegen.dlopen", 1e3), "us"},
        {"kernels.interp_ms", layers.perCall("kernels.interp"), "ms"},
        {"kernels.lex_ns_per_point", median(t.lex_ns_per_point), "ns"},
        {"kernels.rtile_ns_per_point", median(t.rtile_ns_per_point), "ns"},
        {"tune.run_ms", layers.perCall("tune.run"), "ms"},
        {"tune.candidates_evaluated", per(t.evaluated, t.tunes), "count"},
        {"tune.candidates_total", per(t.candidates, t.tunes), "count"},
        {"tune.search.nodes", per(t.tune_nodes, t.tunes), "count"},
        {"tune.best_ns_per_point", median(t.best_ns_per_point), "ns"},
        {"sim.score_us_per_candidate", layers.perCall("sim.score", 1e3),
         "us"},
        {"tune.measure_ms", layers.perCall("tune.measure"), "ms"},
        {"schedule.lowerable_ratio", per(t.lowerable, t.lowerable_checked),
         "frac"},
        {"trace.overhead_ratio", overhead, "ratio"},
    };
}

} // namespace

Outcome
runTraced(const Options &opt)
{
    Outcome out;
    Checker checker;
    Layers layers;
    Tally tally;
    const std::string &w = opt.workload;

    // The requests and what they must answer: for solves, the untimed
    // reference (solveDirect, or the pass that wrote the store); for
    // native and tune, the untraced pass's deterministic prefix.
    std::vector<Query> pool;
    std::vector<std::string> lines;
    std::vector<size_t> origin;
    std::vector<std::string> reference;
    fs::path store = opt.workdir / "traced.store";
    if (w == "cold-solve") {
        pool = solvePool(opt.seed, kSolvePool);
        lines = coldLines(pool, opt.seed);
    } else if (w == "warm-restart") {
        pool = solvePool(opt.seed, kSolvePool);
        MetricsRegistry metrics;
        auto writer = makeService(metrics, store);
        for (const Query &q : pool)
            reference.push_back(responseBody(runRequest(
                *writer, parseRequestLine(renderLine(q), 1))));
        lines = warmLines(pool, opt.seed, kWarmCopies, origin);
    } else {
        pool = w == "tune" ? tunePool(opt.seed) : nativePool(opt.seed);
        for (const Query &q : pool)
            lines.push_back(renderLine(q));
    }

    // Untraced pass, from the same starting state as the traced one.
    std::vector<double> scratch;
    std::vector<std::string> untraced;
    double untraced_s = 0;
    {
        MetricsRegistry metrics;
        fs::path cold_store = opt.workdir / "untraced.store";
        auto service = makeService(
            metrics, w == "cold-solve" ? cold_store
                                       : w == "warm-restart" ? store
                                                             : fs::path());
        freshJitCache(opt.workdir / "jit-untraced");
        untraced_s = runPass(*service, lines, scratch, untraced);
    }

    // Traced pass.
    freshJitCache(opt.workdir / "jit-traced");
    trace::Tracer &tracer = trace::Tracer::instance();
    tracer.clear();
    tracer.enable(kTraceCapacity);
    std::vector<std::string> traced(lines.size());
    auto t0 = Clock::now();
    {
        Stack stack;
        if (w == "cold-solve")
            openStore(layers, stack, opt.workdir / "cold-traced.store");
        else if (w == "warm-restart")
            openStore(layers, stack, store);
        for (size_t i = 0; i < lines.size(); ++i) {
            Scope scope(layers, "perfbench.request");
            Request request;
            {
                Scope parse(layers, "service.parse");
                request = parseRequestLine(lines[i], i + 1);
            }
            tally.requests += 1;
            if (!request.error.empty())
                traced[i] = errorLine(request.index, request.error);
            else if (request.native)
                traced[i] = tracedNative(layers, tally, request);
            else if (request.tune)
                traced[i] = tracedTune(layers, tally, request,
                                       pool[i].points());
            else
                traced[i] = tracedSolve(layers, tally, stack, request);
        }
    }
    double traced_s = secondsSince(t0);
    tracer.disable();
    std::string error;
    if (!tracer.exportToFile((opt.workdir / "trace.json").string(),
                             &error))
        out.fail("trace export: " + error);
    if (tracer.droppedCount() != 0)
        out.fail(std::to_string(tracer.droppedCount()) +
                 " trace events dropped");

    // Every traced answer: checked, equal to the untraced one, and
    // equal to the reference.
    std::map<std::string, std::string> direct;
    for (size_t i = 0; i < lines.size(); ++i) {
        ++out.attempted;
        std::string verdict = checker.check(lines[i], traced[i]);
        std::string body = deterministicPrefix(responseBody(traced[i]));
        if (verdict.empty() &&
            body != deterministicPrefix(responseBody(untraced[i])))
            verdict = "traced '" + traced[i] + "' but untraced '" +
                      untraced[i] + "'";
        if (verdict.empty() && w == "warm-restart" &&
            body != reference[origin[i]])
            verdict = "traced '" + traced[i] + "' but the store pass '" +
                      reference[origin[i]] + "'";
        if (verdict.empty() && w == "cold-solve") {
            auto [it, fresh] = direct.try_emplace(lines[i]);
            if (fresh)
                it->second = responseBody(runBatchDirect(
                    {parseRequestLine(lines[i], 1)}, kNodeBudget)[0]);
            if (body != it->second)
                verdict = "traced '" + traced[i] + "' but solveDirect '" +
                          it->second + "'";
        }
        if (!verdict.empty())
            out.fail(verdict);
    }

    double overhead = traced_s / untraced_s;
    addLayerMetrics(out, layers, tally, overhead);
    std::ostringstream oss;
    oss << w << " traced: " << lines.size() << " requests, "
        << tracer.eventCount() << " trace events, qps traced "
        << static_cast<double>(lines.size()) / traced_s << " vs untraced "
        << static_cast<double>(lines.size()) / untraced_s;
    if (w == "tune")
        oss << "; largest embedded search " << tally.tune_nodes_max
            << " nodes";
    out.notes.push_back(oss.str());
    return out;
}

} // namespace perfbench
