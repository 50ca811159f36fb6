#include "tune/tune.h"

#include <algorithm>
#include <chrono>

#include "analysis/dependence.h"
#include "core/uov.h"
#include "schedule/legality.h"
#include "support/error.h"
#include "support/trace.h"

namespace uov {

LoopNest
nestFromStencil(const Stencil &stencil, const IVec &lo, const IVec &hi,
                const std::string &name)
{
    size_t d = stencil.dim();
    UOV_REQUIRE(lo.dim() == d && hi.dim() == d,
                "nestFromStencil: bounds rank " << lo.dim()
                    << " does not match stencil rank " << d);
    LoopNest nest(name, lo, hi);
    Statement st;
    st.name = "N";
    st.write = uniformAccess("N", IVec(d));
    for (const IVec &dep : stencil.deps()) {
        std::vector<int64_t> off(d);
        for (size_t k = 0; k < d; ++k)
            off[k] = -dep[k];
        st.reads.push_back(uniformAccess("N", IVec(std::move(off))));
    }
    nest.addStatement(st);
    return nest;
}

namespace tune {

namespace {

/** The register-tiling factor grid (legality-filtered later). */
constexpr int64_t kUnrollGrid[] = {1, 2, 4, 8, 16};
constexpr int64_t kJamGrid[] = {1, 2, 4};
constexpr int64_t kMaxCopies = 32;

/** The skewed-tiling size grid for 2-D stencils. */
constexpr int64_t kTileGrid[][2] = {
    {4, 16}, {8, 32}, {16, 64}, {32, 128}};

/**
 * Legal schedule compositions for @p stencil, deterministic order,
 * lex first.  @p lowerable_only drops simulator-only compositions
 * (loop permutations the C emitter cannot lower).
 */
std::vector<ScheduleBuilder>
enumerateSchedules(const Stencil &stencil, bool lowerable_only)
{
    size_t d = stencil.dim();
    std::vector<ScheduleBuilder> specs;
    auto push = [&](const ScheduleBuilder &b) {
        for (const ScheduleBuilder &seen : specs)
            if (seen == b)
                return;
        specs.push_back(b);
    };

    specs.emplace_back(d); // the original lexicographic order

    for (int64_t u : kUnrollGrid)
        for (int64_t j : kJamGrid) {
            if (u == 1 && j == 1)
                continue; // that is lex
            if (d < 2 && j > 1)
                continue;
            if (u * j > kMaxCopies)
                continue;
            ScheduleBuilder b(d);
            if (u > 1)
                b.unroll(u);
            if (j > 1)
                b.unrollJam(j);
            if (b.legal(stencil))
                push(b);
        }

    bool skewable = d == 2;
    for (const IVec &v : stencil.deps())
        skewable = skewable && v[0] > 0;
    if (skewable)
        for (const auto &sizes : kTileGrid) {
            ScheduleBuilder b(d);
            b.skewToNonNegative(stencil).tile({sizes[0], sizes[1]});
            if (b.legal(stencil))
                push(b);
        }

    if (!lowerable_only && d >= 2 && d <= 4) {
        std::vector<size_t> perm(d);
        for (size_t k = 0; k < d; ++k)
            perm[k] = k;
        while (std::next_permutation(perm.begin(), perm.end())) {
            if (!permutationLegal(perm, stencil))
                continue;
            ScheduleBuilder b(d);
            b.reorder(perm);
            push(b);
        }
    }
    return specs;
}

} // namespace

Tuner::Tuner(LoopNest nest, TuneOptions options)
    : _nest(std::move(nest)), _options(std::move(options)),
      _stencil(extractStencil(_nest, 0))
{}

TuneResult
Tuner::run()
{
    TRACE_SPAN("tune.run");
    auto t_start = std::chrono::steady_clock::now();
    auto elapsed_us = [&] {
        return std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now() - t_start)
            .count();
    };

    TuneResult result;
    _candidates.clear();
    _scores.clear();

    // (1) Plan once without searching: dependence analysis, regions,
    // and the ov_o-seeded mapping every candidate plan is copied from.
    PlanOptions popt;
    popt.use_initial_uov = true;
    MappingPlan base = planStorageMapping(_nest, 0, popt);

    // (2) Pool UOV candidates from budgeted searches (both always
    // return a certified vector, degrading to ov_o on expiry).
    auto search = [&](SearchObjective objective) {
        TRACE_SPAN("tune.uov_search");
        SearchOptions so;
        so.budget = _options.budget;
        if (objective == SearchObjective::BoundedStorage)
            so.isg = _nest.domain();
        BranchBoundSearch bb(_stencil, objective, so);
        return bb.run();
    };
    result.uov_shortest = search(SearchObjective::ShortestVector);
    result.uov_storage = search(SearchObjective::BoundedStorage);

    std::vector<IVec> pool;
    auto poolPush = [&](const IVec &uov) {
        for (const IVec &seen : pool)
            if (seen == uov)
                return;
        pool.push_back(uov);
    };
    poolPush(result.uov_shortest.best_uov);
    poolPush(result.uov_storage.best_uov);
    poolPush(_stencil.initialUov());

    // (3) Storage variants: one OV-mapped plan per pool vector that
    // keeps the output plane (ovMappingKeepsOutput), plus the
    // expanded baseline.  The first variant mirrors 'query native''s
    // default plan so candidate 0 is exactly the default
    // lexicographic kernel.
    struct Variant
    {
        GenStorage storage;
        std::shared_ptr<const MappingPlan> plan;
    };
    std::vector<Variant> variants;
    auto planFor = [&](const IVec &uov) {
        auto p = std::make_shared<MappingPlan>(base);
        if (!(uov == base.mapping.ov())) {
            p->mapping = StorageMapping::create(uov, _nest.domain());
            p->search.best_uov = uov;
        }
        return p;
    };
    for (const IVec &uov : pool)
        if (ovMappingKeepsOutput(uov))
            variants.push_back({GenStorage::OvMapped, planFor(uov)});
    variants.push_back({GenStorage::Expanded,
                        std::make_shared<MappingPlan>(base)});

    // (4) The candidate space: variants x schedule compositions,
    // candidate 0 = (default storage, lex).
    std::vector<ScheduleBuilder> specs =
        enumerateSchedules(_stencil, _options.lowerable_only);
    for (const Variant &variant : variants)
        for (const ScheduleBuilder &spec : specs) {
            TuneCandidate cand;
            cand.schedule = spec;
            cand.storage = variant.storage;
            cand.plan = variant.plan;
            _candidates.push_back(std::move(cand));
        }
    result.candidates_total = _candidates.size();
    TRACE_COUNTER("tune.candidates", "count",
                  static_cast<int64_t>(_candidates.size()));

    // (5) Score in order until a budget axis expires.  Candidate 0
    // is evaluated before the first poll: the anytime floor.
    SimEvaluator default_eval;
    Evaluator *eval = _options.evaluator != nullptr
                          ? _options.evaluator
                          : &default_eval;
    TuneContext ctx(_nest, _stencil);
    auto exhausted = [&]() -> std::string {
        if (_options.budget.deadline.expired())
            return "deadline";
        if (_options.max_candidates != 0 &&
            result.evaluated >= _options.max_candidates)
            return "candidate-budget";
        return "";
    };
    for (size_t i = 0; i < _candidates.size(); ++i) {
        if (i > 0) {
            std::string why = exhausted();
            if (!why.empty()) {
                result.status = TuneStatus::Degraded;
                result.degraded_reason = why;
                break;
            }
        }
        TRACE_SPAN("tune.evaluate");
        double score = eval->score(ctx, _candidates[i]);
        _scores.push_back(score);
        ++result.evaluated;
        if (result.evaluated == 1 || score < result.best_score) {
            result.best = _candidates[i];
            result.best_score = score;
        }
        if (_options.on_candidate)
            _options.on_candidate(_candidates[i], score, i,
                                  elapsed_us());
    }

    // An exhausted UOV-search budget means the pool itself may be
    // missing better vectors: the answer is still certified, but not
    // provably optimal over the full joint space.
    if (result.status == TuneStatus::Optimal &&
        (result.uov_shortest.degraded() ||
         result.uov_storage.degraded())) {
        result.status = TuneStatus::Degraded;
        result.degraded_reason =
            result.uov_shortest.degraded()
                ? result.uov_shortest.degraded_reason
                : result.uov_storage.degraded_reason;
    }

    // Certify the winner: the pool is built from certified searches,
    // but the contract is re-checked with the exact oracle.
    if (result.best.storage == GenStorage::OvMapped) {
        UovOracle oracle(_stencil);
        UOV_CHECK(oracle.isUov(result.best.uov()),
                  "tuner produced an uncertified OV "
                      << result.best.uov().str());
    }
    result.elapsed_us = elapsed_us();
    TRACE_COUNTER("tune.evaluated", "count",
                  static_cast<int64_t>(result.evaluated));
    return result;
}

std::vector<size_t>
Tuner::measuredSet() const
{
    constexpr size_t kRivals = 4;
    std::vector<size_t> ranked;
    for (size_t i = 1; i < _scores.size(); ++i)
        if (_candidates[i].schedule.lower(_stencil).has_value())
            ranked.push_back(i);
    std::stable_sort(ranked.begin(), ranked.end(),
                     [&](size_t a, size_t b) {
                         return _scores[a] < _scores[b];
                     });
    ranked.resize(std::min(ranked.size(), kRivals));
    ranked.insert(ranked.begin(), 0);
    return ranked;
}

} // namespace tune
} // namespace uov
