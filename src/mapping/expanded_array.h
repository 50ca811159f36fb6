/**
 * @file
 * Fully expanded storage over an iteration-space box: the "natural"
 * baseline of Section 5.  Every iteration point owns a distinct cell,
 * so no storage dependence is ever introduced -- at the cost of
 * O(volume) memory.
 */

#ifndef UOV_MAPPING_EXPANDED_ARRAY_H
#define UOV_MAPPING_EXPANDED_ARRAY_H

#include <cstdint>
#include <utility>
#include <vector>

#include "geometry/box.h"
#include "geometry/ivec.h"
#include "support/error.h"

namespace uov {

/** Dense row-major storage over the integer box [lo, hi]. */
template <typename T>
class ExpandedArray
{
  public:
    ExpandedArray(IVec lo, IVec hi, T fill = T{})
        : _box(std::move(lo), std::move(hi)),
          _data(static_cast<size_t>(_box.cells()), fill)
    {
    }

    int64_t cellCount() const { return static_cast<int64_t>(_data.size()); }

    bool
    inBounds(const IVec &q) const
    {
        UOV_CHECK(q.dim() == _box.dim(), "point dimension mismatch");
        return inBox(q, _box.lo(), _box.hi());
    }

    T &
    at(const IVec &q)
    {
        return _data[index(q)];
    }

    const T &
    at(const IVec &q) const
    {
        return _data[index(q)];
    }

  private:
    size_t
    index(const IVec &q) const
    {
        UOV_CHECK(inBounds(q), "point " << q.str() << " outside box");
        return static_cast<size_t>(_box.index(q));
    }

    BoxLayout _box;
    std::vector<T> _data;
};

} // namespace uov

#endif // UOV_MAPPING_EXPANDED_ARRAY_H
