#include "core/cone.h"

#include "support/checked.h"
#include "support/error.h"

namespace uov {

namespace {

/** DFS frames one membership query may stack (8 MiB of frames). */
constexpr size_t kMaxDepth = size_t{1} << 20;

bool
allZero(const int64_t *w, size_t d)
{
    for (size_t i = 0; i < d; ++i)
        if (w[i] != 0)
            return false;
    return true;
}

} // namespace

ConeMemo::ConeMemo(Stencil stencil)
    : _stencil(std::move(stencil)), _map(_arena, _stencil.dim(), 1024)
{
    _h = _stencil.positiveFunctional();
    for (size_t c = 0; c < _stencil.dim(); ++c) {
        if (_stencil.allNonNegativeInCoord(c))
            _non_neg_coords.push_back(c);
        if (_stencil.allNonPositiveInCoord(c))
            _non_pos_coords.push_back(c);
    }

    if (!_h) {
        // Without a positive functional we must still guarantee
        // termination: require some coordinate in which every
        // dependence strictly advances.
        bool ok = false;
        for (size_t c = 0; c < _stencil.dim() && !ok; ++c) {
            bool strict = true;
            for (const auto &v : _stencil.deps())
                if (v[c] <= 0)
                    strict = false;
            ok = strict;
        }
        UOV_REQUIRE(ok, "stencil " << _stencil.str()
                        << " defeats both the exact positive functional "
                           "(overflow) and component-wise termination");
    }
}

ConeSolver::ConeSolver(Stencil stencil, uint64_t max_nodes)
    : ConeSolver(std::make_shared<ConeMemo>(std::move(stencil)), max_nodes)
{
}

ConeSolver::ConeSolver(std::shared_ptr<ConeMemo> memo, uint64_t max_nodes)
    : _memo(std::move(memo)), _max_nodes(max_nodes)
{
    UOV_CHECK(_memo != nullptr, "ConeSolver requires a memo");
}

bool
ConeSolver::prunedOut(const int64_t *w) const
{
    const ConeMemo &memo = *_memo;
    for (size_t c : memo._non_neg_coords)
        if (w[c] < 0)
            return true;
    for (size_t c : memo._non_pos_coords)
        if (w[c] > 0)
            return true;
    if (memo._h) {
        // h . w == sum a_i (h . v_i) with every h . v_i > 0, so any
        // nonzero cone member has h . w > 0.
        const int64_t *h = memo._h->data();
        const size_t d = memo._stencil.dim();
        int64_t hw = 0;
        bool nonzero = false;
        for (size_t i = 0; i < d; ++i) {
            hw = checkedAdd(hw, checkedMul(h[i], w[i]));
            nonzero = nonzero || w[i] != 0;
        }
        if (hw < 0 || (hw == 0 && nonzero))
            return true;
    }
    return false;
}

bool
ConeSolver::search(const int64_t *w0)
{
    ConeMemo &memo = *_memo;
    auto &map = memo._map;
    const auto &deps = memo._stencil.deps();
    const size_t d = memo._stencil.dim();
    const size_t m = deps.size();

    if (allZero(w0, d))
        return true;
    if (prunedOut(w0))
        return false;
    {
        uint32_t h = map.find(w0);
        if (h != map.kNone && map.value(h) != ConeMemo::kUnknown)
            return map.value(h) == ConeMemo::kInCone;
    }

    // Explicit DFS stack replacing the old recursion: a frame is an
    // (entry handle, next dependence index) pair; residue coordinates
    // are read back from the memo's key storage, so a frame is 8 bytes
    // and the stack lives on the scratch arena.  An entry left
    // kUnknown is in-flight (or abandoned by a budget abort) and is
    // treated exactly like an absent memo entry.
    Arena::Scope scope(memo._scratch);
    struct Frame
    {
        uint32_t handle;
        uint32_t k;
    };
    ArenaVector<Frame> stack(memo._scratch, 64);

    ++_nodes;
    UOV_REQUIRE(_nodes <= _max_nodes,
                "cone membership search budget of "
                    << _max_nodes << " nodes exceeded (stencil "
                    << memo._stencil.str() << ")");
    stack.push_back({map.findOrInsert(w0), 0});

    if (_child.size() != d)
        _child.assign(d, 0);
    int64_t *child = _child.data();

    while (!stack.empty()) {
        Frame &f = stack.back();
        if (f.k == m) {
            // Every dependence tried and none led into the cone.
            map.value(f.handle) = ConeMemo::kNotInCone;
            stack.pop_back();
            continue;
        }
        const int64_t *w = map.key(f.handle);
        const int64_t *v = deps[f.k].data();
        ++f.k;
        for (size_t i = 0; i < d; ++i)
            child[i] = checkedSub(w[i], v[i]);

        bool child_in_cone;
        if (allZero(child, d)) {
            child_in_cone = true;
        } else if (prunedOut(child)) {
            child_in_cone = false;
        } else {
            uint32_t h = map.findOrInsert(child);
            if (map.value(h) == ConeMemo::kUnknown) {
                // Unresolved subproblem: descend.
                ++_nodes;
                UOV_REQUIRE(_nodes <= _max_nodes,
                            "cone membership search budget of "
                                << _max_nodes << " nodes exceeded (stencil "
                                << memo._stencil.str() << ")");
                // The depth follows the input (about w / min v in
                // 1-D), so it is a budget like the node count.
                UOV_REQUIRE(stack.size() < kMaxDepth,
                            "cone membership search depth of "
                                << kMaxDepth << " frames exceeded (stencil "
                                << memo._stencil.str() << ")");
                stack.push_back({h, 0});
                continue;
            }
            child_in_cone = map.value(h) == ConeMemo::kInCone;
        }
        if (child_in_cone) {
            // A member child short-circuits every frame below it: each
            // is itself in the cone via that child.
            while (!stack.empty()) {
                map.value(stack.back().handle) = ConeMemo::kInCone;
                stack.pop_back();
            }
            return true;
        }
    }
    return false;
}

bool
ConeSolver::contains(const IVec &w)
{
    UOV_REQUIRE(w.dim() == _memo->_stencil.dim(),
                "vector dimension " << w.dim() << " != stencil dimension "
                                    << _memo->_stencil.dim());
    return search(w.data());
}

std::optional<std::vector<int64_t>>
ConeSolver::certificate(const IVec &w)
{
    if (!contains(w))
        return std::nullopt;

    const Stencil &st = _memo->_stencil;
    std::vector<int64_t> coeffs(st.size(), 0);
    IVec rest = w;
    // Greedy reconstruction: at each step some v_i must lead to a
    // residue still in the cone (contains() is memoized, so this walk
    // is cheap).
    while (!rest.isZero()) {
        bool stepped = false;
        for (size_t i = 0; i < st.size(); ++i) {
            IVec next = rest - st.dep(i);
            if (contains(next)) {
                ++coeffs[i];
                rest = next;
                stepped = true;
                break;
            }
        }
        UOV_CHECK(stepped, "certificate reconstruction stalled at "
                               << rest.str());
    }
    return coeffs;
}

} // namespace uov
