#include "core/search.h"

#include <chrono>
#include <cstring>
#include <sstream>
#include <vector>

#include "core/storage_count.h"
#include "core/uov.h"
#include "geometry/box.h"
#include "support/checked.h"
#include "support/error.h"
#include "support/flat_map.h"
#include "support/logging.h"
#include "support/trace.h"

namespace uov {

namespace {

/**
 * Frontier entry: 4-byte point handle plus the ordering key.  The
 * (priority, seq) pair is a strict total order (seq is unique), so any
 * correct min-heap pops the exact same sequence the old
 * std::priority_queue did -- heap arity changes layout, not results.
 */
struct QEntry
{
    int64_t priority;
    uint64_t seq;
    uint32_t handle;
};

inline bool
entryBefore(const QEntry &a, const QEntry &b)
{
    if (a.priority != b.priority)
        return a.priority < b.priority;
    return a.seq < b.seq;
}

/** 4-ary min-heap on an arena: shallower than binary, cache-denser. */
class FrontierHeap
{
  public:
    explicit FrontierHeap(Arena &arena) : _v(arena, 64) {}

    bool empty() const { return _v.size() == 0; }

    void
    push(const QEntry &e)
    {
        _v.push_back(e);
        size_t i = _v.size() - 1;
        while (i) {
            size_t parent = (i - 1) / 4;
            if (!entryBefore(_v[i], _v[parent]))
                break;
            QEntry tmp = _v[i];
            _v[i] = _v[parent];
            _v[parent] = tmp;
            i = parent;
        }
    }

    QEntry
    pop()
    {
        QEntry top = _v[0];
        QEntry last = _v.back();
        _v.pop_back();
        size_t n = _v.size();
        if (n) {
            size_t i = 0;
            for (;;) {
                size_t first = i * 4 + 1;
                if (first >= n)
                    break;
                size_t best = first;
                size_t end = first + 4 < n ? first + 4 : n;
                for (size_t c = first + 1; c < end; ++c)
                    if (entryBefore(_v[c], _v[best]))
                        best = c;
                if (!entryBefore(_v[best], last))
                    break;
                _v[i] = _v[best];
                i = best;
            }
            _v[i] = last;
        }
        return top;
    }

  private:
    ArenaVector<QEntry> _v;
};

/** Flat FIFO worklist: popped entries are left behind in the arena. */
class FrontierFifo
{
  public:
    explicit FrontierFifo(Arena &arena) : _v(arena, 64) {}

    bool empty() const { return _head == _v.size(); }
    void push(const QEntry &e) { _v.push_back(e); }
    QEntry pop() { return _v[_head++]; }

  private:
    ArenaVector<QEntry> _v;
    size_t _head = 0;
};

} // namespace

std::string
SearchStats::str() const
{
    std::ostringstream oss;
    oss << "visited=" << visited << " enqueued=" << enqueued
        << " pruned=" << pruned << " bound_updates=" << bound_updates
        << " visits_to_best=" << visits_to_best << " elapsed_us="
        << elapsed_us << " arena_bytes=" << arena_bytes;
    return oss.str();
}

BranchBoundSearch::BranchBoundSearch(Stencil stencil,
                                     SearchObjective objective,
                                     SearchOptions options)
    : _stencil(std::move(stencil)), _objective(objective),
      _options(std::move(options)), _pruner(_stencil)
{
    // Stencil construction already rejects > 32 distinct vectors;
    // restate the invariant here because run() packs PATHSETs into
    // uint32_t masks and (1u << m) is undefined for m > 32.
    UOV_REQUIRE(_stencil.size() <= 32,
                "PATHSET bitmask supports at most 32 dependences; "
                "stencil " << _stencil.str() << " has "
                           << _stencil.size());
    if (_objective == SearchObjective::BoundedStorage) {
        UOV_REQUIRE(_options.isg.has_value(),
                    "BoundedStorage objective requires an ISG");
        UOV_REQUIRE(_options.isg->dim() == _stencil.dim(),
                    "ISG dimension " << _options.isg->dim()
                        << " != stencil dimension " << _stencil.dim());
    }
}

const std::shared_ptr<ConeMemo> &
BranchBoundSearch::memo()
{
    if (!_memo)
        _memo = std::make_shared<ConeMemo>(_stencil);
    return _memo;
}

int64_t
BranchBoundSearch::objectiveOf(const IVec &w) const
{
    switch (_objective) {
      case SearchObjective::ShortestVector:
        return w.normSquared();
      case SearchObjective::BoundedStorage:
        return storageCellCount(w, *_options.isg);
    }
    UOV_UNREACHABLE("bad objective");
}

SearchResult
BranchBoundSearch::run()
{
    const size_t d = _stencil.dim();
    const size_t m = _stencil.size();
    const uint32_t full_mask =
        m == 32 ? 0xffffffffu : ((1u << m) - 1);
    const auto start = std::chrono::steady_clock::now();
    const SearchBudget &budget = _options.budget;

    auto elapsed_us = [&] {
        return std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    // Capture the tracing flag once: a flip mid-run must not leave
    // half-open interval spans, and the disabled path must stay one
    // relaxed load per run, not per node.
    const bool traced = trace::tracingEnabled();
    if (traced)
        trace::begin("search.run");

    SearchResult result;

    // "search.interval" spans tile the run between incumbent
    // improvements, so the trace shows how long each bound survived.
    auto trace_incumbent = [&](int64_t obj, bool first) {
        if (!traced)
            return;
        trace::Tracer &tracer = trace::Tracer::instance();
        if (!first)
            tracer.endEvent("search.interval");
        trace::Arg args[2];
        args[0].key = "objective";
        args[0].type = trace::Arg::Type::Int;
        args[0].i = obj;
        args[1].key = "visited";
        args[1].type = trace::Arg::Type::Int;
        args[1].i = static_cast<int64_t>(result.stats.visited);
        tracer.instantEvent("search.incumbent", args, 2);
        tracer.beginEvent("search.interval");
    };

    result.best_uov = _stencil.initialUov();
    result.initial_objective = objectiveOf(result.best_uov);
    result.best_objective = result.initial_objective;
    if (_options.on_incumbent)
        _options.on_incumbent(result.best_uov, result.best_objective,
                              0, elapsed_us());
    trace_incumbent(result.best_objective, /*first=*/true);

    // Budget poll: nodes every expansion, the clock every 256th (and
    // before the first, so a 0 ms deadline returns the ov_o seed with
    // nodes == 0, deterministically).
    auto out_of_budget = [&]() -> bool {
        if (result.stats.visited >= budget.max_nodes) {
            result.degraded_reason = "node-budget";
        } else if (budget.deadline.bounded() &&
                   (result.stats.visited & 255) == 0 &&
                   budget.deadline.expired()) {
            result.degraded_reason = "deadline";
        } else {
            return false;
        }
        result.status = SearchStatus::Degraded;
        return true;
    };

    // Search region: offsets from which a better candidate is still
    // reachable.  For the shortest objective the radius shrinks with
    // the bound; for bounded storage it is fixed by the paper's
    // P_ovo * |ov_o| / P_M argument (shrinking it from improved
    // storage bounds is unsound for skewed ISGs, where storage does
    // not cleanly lower-bound length).
    int64_t radius_sq;
    if (_objective == SearchObjective::ShortestVector) {
        radius_sq = result.best_uov.normSquared();
    } else {
        radius_sq =
            knownBoundsRadiusSquared(result.best_uov, *_options.isg);
    }

    // Per-offset PATHSET state, flat in arena memory keyed by packed
    // coordinates: best-known mask, the mask already expanded with,
    // and the point's objective (cached: objectiveOf is pure, so the
    // value the old code recomputed per push is computed once per
    // point here).  A point is (re)expanded only when its known mask
    // gained bits, so each offset is expanded at most |V| times.
    struct PointRec
    {
        int64_t objective;
        uint32_t known;
        uint32_t expanded;
    };
    _arena.reset();
    PackedCoordMap<PointRec> state(_arena, d, 1024);

    // The frontier holds 4-byte handles into the point table; both
    // queue flavors live on the arena as flat arrays.
    FrontierHeap pq(_arena);
    FrontierFifo fifo(_arena);
    const bool use_pq = _options.use_priority_queue;
    uint64_t seq = 0;

    auto push = [&](uint32_t handle, int64_t priority) {
        QEntry e{priority, seq++, handle};
        if (use_pq)
            pq.push(e);
        else
            fifo.push(e);
        ++result.stats.enqueued;
    };
    auto empty = [&] { return use_pq ? pq.empty() : fifo.empty(); };
    auto pop = [&] { return use_pq ? pq.pop() : fifo.pop(); };

    // Raw-pointer views of the dependence vectors for the child loop.
    std::vector<const int64_t *> dep(m);
    for (size_t k = 0; k < m; ++k)
        dep[k] = _stencil.dep(k).data();

    // Coordinate scratch; wbuf snapshots the popped point because map
    // key storage may move when the child loop inserts.
    std::vector<int64_t> wbuf(d), childbuf(d);

    // Seed: the children of the origin q are one backward dependence
    // away; their PATHSET is the dependence traversed.
    for (size_t k = 0; k < m; ++k) {
        const IVec &w = _stencil.dep(k);
        bool inserted = false;
        uint32_t h = state.findOrInsert(w.data(), &inserted);
        PointRec &rec = state.value(h);
        if (inserted)
            rec.objective = objectiveOf(w);
        rec.known |= (1u << k);
        push(h, rec.objective);
    }

    while (!empty()) {
        QEntry e = pop();
        PointRec &rec = state.value(e.handle);
        uint32_t mask = rec.known;
        if (mask == rec.expanded)
            continue; // stale queue entry, nothing new to propagate

        if (out_of_budget())
            break;
        ++result.stats.visited;
        rec.expanded = mask;
        const int64_t obj_w = rec.objective;
        std::memcpy(wbuf.data(), state.key(e.handle),
                    d * sizeof(int64_t));
        if (traced && (result.stats.visited & 255) == 0) {
            TRACE_COUNTER("search.nodes", "visited",
                          result.stats.visited);
            TRACE_COUNTER("search.pruned", "pruned",
                          result.stats.pruned);
            TRACE_COUNTER("search.enqueued", "enqueued",
                          result.stats.enqueued);
            TRACE_COUNTER("search.arena", "bytes",
                          static_cast<int64_t>(_arena.bytesUsed()));
        }

        // Candidate check (paper Visit step 3).
        if (mask == full_mask) {
            if (obj_w < result.best_objective) {
                IVec wvec(wbuf.data(), d);
                result.best_objective = obj_w;
                result.best_uov = wvec;
                ++result.stats.bound_updates;
                result.stats.visits_to_best = result.stats.visited;
                if (_objective == SearchObjective::ShortestVector &&
                    !_options.disable_bound_shrinking)
                    radius_sq = obj_w;
                if (_options.on_incumbent)
                    _options.on_incumbent(result.best_uov, obj_w,
                                          result.stats.visited,
                                          elapsed_us());
                trace_incumbent(obj_w, /*first=*/false);
                UOV_LOG_DEBUG("search bound -> " << obj_w << " at "
                                                 << wvec.str());
            }
        }

        // Expand children (paper Visit steps 1-2), bounded by the
        // reachable-region test.  Insertion order matches the old
        // code exactly: a point enters the table only when its first
        // unpruned new-mask push happens.
        for (size_t k = 0; k < m; ++k) {
            for (size_t c = 0; c < d; ++c)
                childbuf[c] = checkedAdd(wbuf[c], dep[k][c]);
            uint32_t child_mask = mask | (1u << k);
            uint32_t ch = state.find(childbuf.data());
            uint32_t known =
                ch == state.kNone ? 0 : state.value(ch).known;
            if ((known | child_mask) == known)
                continue; // nothing new for this child
            if (_pruner.prune(IVec(childbuf.data(), d), radius_sq)) {
                ++result.stats.pruned;
                continue;
            }
            bool inserted = false;
            if (ch == state.kNone)
                ch = state.findOrInsert(childbuf.data(), &inserted);
            PointRec &child_rec = state.value(ch);
            if (inserted)
                child_rec.objective =
                    objectiveOf(IVec(childbuf.data(), d));
            child_rec.known = known | child_mask;
            push(ch, child_rec.objective);
        }
    }

    result.stats.elapsed_us = elapsed_us();
    result.stats.arena_bytes = _arena.bytesUsed();

    if (traced) {
        trace::Tracer &tracer = trace::Tracer::instance();
        tracer.endEvent("search.interval");
        trace::Arg args[2];
        args[0].key = "visited";
        args[0].type = trace::Arg::Type::Int;
        args[0].i = static_cast<int64_t>(result.stats.visited);
        args[1].key = "pruned";
        args[1].type = trace::Arg::Type::Int;
        args[1].i = static_cast<int64_t>(result.stats.pruned);
        tracer.endEvent("search.run", args, 2);
    }

    // Contract: no vector leaves the search API unverified, whatever
    // path (seed, candidate, degraded best-so-far) produced it.  The
    // oracle shares this search's cone memo so certification after
    // run() reuses the membership work done here.
    UOV_CHECK(UovOracle(memo()).isUov(result.best_uov),
              "search produced a non-UOV " << result.best_uov.str()
                                           << " for " << _stencil.str());
    return result;
}

SearchResult
exhaustiveUovSearch(const Stencil &stencil, SearchObjective objective,
                    const SearchOptions &options)
{
    UOV_REQUIRE(objective == SearchObjective::ShortestVector ||
                    options.isg.has_value(),
                "BoundedStorage objective requires an ISG");

    UovOracle oracle(stencil);
    IVec initial = stencil.initialUov();

    auto objective_of = [&](const IVec &w) {
        return objective == SearchObjective::ShortestVector
                   ? w.normSquared()
                   : storageCellCount(w, *options.isg);
    };

    SearchResult result;
    result.best_uov = initial;
    result.initial_objective = objective_of(initial);
    result.best_objective = result.initial_objective;

    int64_t radius_sq =
        objective == SearchObjective::ShortestVector
            ? initial.normSquared()
            : knownBoundsRadiusSquared(initial, *options.isg);
    scanBall(stencil.dim(), radius_sq, [&](const IVec &w) {
        ++result.stats.visited;
        if (!oracle.isUov(w))
            return;
        int64_t obj = objective_of(w);
        if (obj < result.best_objective ||
            (obj == result.best_objective && w < result.best_uov)) {
            result.best_objective = obj;
            result.best_uov = w;
            ++result.stats.bound_updates;
        }
    });
    return result;
}

} // namespace uov
