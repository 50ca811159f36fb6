#include "schedule/builder.h"

#include <algorithm>
#include <sstream>

#include "schedule/legality.h"
#include "support/error.h"

namespace uov {

namespace {

/** Render an integer list as "a,b,c". */
template <typename Seq>
std::string
joinList(const Seq &seq)
{
    std::ostringstream oss;
    bool first = true;
    for (const auto &x : seq) {
        if (!first)
            oss << ",";
        oss << x;
        first = false;
    }
    return oss.str();
}

} // namespace

ScheduleBuilder::ScheduleBuilder(size_t depth)
    : _depth(depth), _transform(IMatrix::identity(depth)),
      _tiles(depth, 0)
{
    UOV_REQUIRE(depth >= 1,
                "ScheduleBuilder: depth must be >= 1, got " << depth);
}

ScheduleBuilder &
ScheduleBuilder::reorder(const std::vector<size_t> &perm)
{
    UOV_REQUIRE(perm.size() == _depth,
                "reorder: permutation has " << perm.size()
                    << " entries for a depth-" << _depth << " nest");
    std::vector<bool> seen(_depth, false);
    for (size_t k : perm) {
        UOV_REQUIRE(k < _depth && !seen[k],
                    "reorder(" << joinList(perm)
                               << "): not a permutation of 0.."
                               << _depth - 1);
        seen[k] = true;
    }
    IMatrix p(_depth, _depth);
    for (size_t k = 0; k < _depth; ++k)
        p(k, perm[k]) = 1;
    _transform = p * _transform;
    std::vector<int64_t> tiles(_depth);
    for (size_t k = 0; k < _depth; ++k)
        tiles[k] = _tiles[perm[k]];
    _tiles = std::move(tiles);
    _primitives.push_back("reorder(" + joinList(perm) + ")");
    return *this;
}

ScheduleBuilder &
ScheduleBuilder::skew(size_t target, size_t source, int64_t factor)
{
    UOV_REQUIRE(target < _depth && source < _depth && target != source,
                "skew(" << target << "," << source
                        << "): needs two distinct dimensions < "
                        << _depth);
    _transform.addRowMultiple(target, source, factor);
    std::ostringstream oss;
    oss << "skew(" << target << "," << source << "," << factor << ")";
    _primitives.push_back(oss.str());
    return *this;
}

ScheduleBuilder &
ScheduleBuilder::skewToNonNegative(const Stencil &stencil)
{
    UOV_REQUIRE(stencil.dim() == _depth,
                "skewToNonNegative: stencil rank "
                    << stencil.dim() << " != builder depth " << _depth);
    _transform = uov::skewToNonNegative(stencil) * _transform;
    _primitives.push_back("skew_nonneg");
    return *this;
}

ScheduleBuilder &
ScheduleBuilder::split(size_t dim, int64_t size)
{
    UOV_REQUIRE(dim < _depth, "split(" << dim << "): dimension out of "
                                          "range for depth "
                                       << _depth);
    UOV_REQUIRE(size >= 1,
                "split(" << dim << "," << size
                         << "): tile size must be >= 1");
    _tiles[dim] = size;
    std::ostringstream oss;
    oss << "split(" << dim << "," << size << ")";
    _primitives.push_back(oss.str());
    return *this;
}

ScheduleBuilder &
ScheduleBuilder::tile(const std::vector<int64_t> &sizes)
{
    UOV_REQUIRE(sizes.size() == _depth,
                "tile: " << sizes.size() << " sizes for a depth-"
                         << _depth << " nest");
    for (int64_t s : sizes)
        UOV_REQUIRE(s >= 0, "tile: sizes must be >= 0 (0 = untiled), "
                            "got "
                                << s);
    _tiles = sizes;
    _primitives.push_back("tile(" + joinList(sizes) + ")");
    return *this;
}

ScheduleBuilder &
ScheduleBuilder::unroll(int64_t factor)
{
    UOV_REQUIRE(factor >= 1,
                "unroll(" << factor << "): factor must be >= 1");
    _unroll = factor;
    std::ostringstream oss;
    oss << "unroll(" << factor << ")";
    _primitives.push_back(oss.str());
    return *this;
}

ScheduleBuilder &
ScheduleBuilder::unrollJam(int64_t factor)
{
    UOV_REQUIRE(_depth >= 2,
                "unrollJam: needs a nest of depth >= 2, have "
                    << _depth);
    UOV_REQUIRE(factor >= 1,
                "unrollJam(" << factor << "): factor must be >= 1");
    _jam = factor;
    std::ostringstream oss;
    oss << "jam(" << factor << ")";
    _primitives.push_back(oss.str());
    return *this;
}

bool
ScheduleBuilder::tiled() const
{
    return std::any_of(_tiles.begin(), _tiles.end(),
                       [](int64_t s) { return s > 0; });
}

void
ScheduleBuilder::validate(const Stencil &stencil) const
{
    UOV_REQUIRE(_depth >= 1, "ScheduleBuilder: empty builder (use the "
                             "depth constructor)");
    UOV_REQUIRE(stencil.dim() == _depth,
                "validate: stencil rank " << stencil.dim()
                                          << " != builder depth "
                                          << _depth);
    std::vector<IVec> transformed;
    transformed.reserve(stencil.size());
    for (const IVec &v : stencil.deps()) {
        IVec y = _transform * v;
        UOV_REQUIRE(y.isLexPositive(),
                    "illegal schedule '"
                        << str() << "': dependence " << v.str()
                        << " maps to non-positive " << y.str());
        transformed.push_back(std::move(y));
    }
    if (tiled())
        UOV_REQUIRE(tilingLegal(_transform, stencil),
                    "illegal schedule '"
                        << str()
                        << "': tiling needs component-wise "
                           "non-negative transformed distances "
                           "(skew first)");
    if (_jam > 1)
        UOV_REQUIRE(jamLegal(transformed, _depth - 2, _jam),
                    "illegal schedule '"
                        << str() << "': jam factor " << _jam
                        << " reorders a dependence");
}

bool
ScheduleBuilder::legal(const Stencil &stencil) const
{
    try {
        validate(stencil);
        return true;
    } catch (const UovUserError &) {
        return false;
    }
}

std::unique_ptr<Schedule>
ScheduleBuilder::buildSchedule() const
{
    return std::make_unique<TiledSchedule>(
        _transform, std::vector<std::vector<int64_t>>{_tiles}, str());
}

std::optional<LoweredSchedule>
ScheduleBuilder::lower(const Stencil &stencil) const
{
    if (_depth == 0 || stencil.dim() != _depth)
        return std::nullopt;
    bool identity = _transform == IMatrix::identity(_depth);
    if (identity && !tiled()) {
        LoweredSchedule out;
        if (_unroll > 1 || _jam > 1) {
            out.form = GenSchedule::RegisterTiled;
            out.unroll = _unroll;
            out.jam = _jam;
        }
        return out;
    }
    // The emitter's only transformed form: the canonical skew of a
    // 2-D stencil with both dimensions tiled (codegen SkewedTiled).
    if (_depth != 2 || _unroll > 1 || _jam > 1)
        return std::nullopt;
    if (_tiles[0] < 1 || _tiles[1] < 1)
        return std::nullopt;
    try {
        if (!(_transform == uov::skewToNonNegative(stencil)))
            return std::nullopt;
    } catch (const UovUserError &) {
        return std::nullopt;
    }
    LoweredSchedule out;
    out.form = GenSchedule::SkewedTiled;
    out.tile_sizes = {_tiles[0], _tiles[1]};
    return out;
}

std::string
ScheduleBuilder::str() const
{
    if (_primitives.empty())
        return "lex";
    std::ostringstream oss;
    for (size_t i = 0; i < _primitives.size(); ++i) {
        if (i > 0)
            oss << ";";
        oss << _primitives[i];
    }
    return oss.str();
}

bool
ScheduleBuilder::operator==(const ScheduleBuilder &o) const
{
    return _depth == o._depth && _transform == o._transform &&
           _tiles == o._tiles && _unroll == o._unroll &&
           _jam == o._jam;
}

} // namespace uov
