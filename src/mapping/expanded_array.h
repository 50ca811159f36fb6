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
#include <vector>

#include "geometry/box.h"
#include "geometry/ivec.h"
#include "support/checked.h"
#include "support/error.h"

namespace uov {

/** Dense row-major storage over the integer box [lo, hi]. */
template <typename T>
class ExpandedArray
{
  public:
    ExpandedArray(IVec lo, IVec hi, T fill = T{})
        : _lo(std::move(lo)), _hi(std::move(hi))
    {
        UOV_REQUIRE(_lo.dim() == _hi.dim(), "box dimension mismatch");
        // Row-major strides: last dimension contiguous.
        _stride.assign(_lo.dim(), 1);
        int64_t cells = 1;
        for (size_t c = _lo.dim(); c-- > 0;) {
            UOV_REQUIRE(_lo[c] <= _hi[c], "empty box dimension " << c);
            _stride[c] = cells;
            cells = checkedMul(cells,
                               checkedAdd(checkedSub(_hi[c], _lo[c]), 1));
        }
        _data.assign(static_cast<size_t>(cells), fill);
    }

    int64_t cellCount() const { return static_cast<int64_t>(_data.size()); }

    bool
    inBounds(const IVec &q) const
    {
        UOV_CHECK(q.dim() == _lo.dim(), "point dimension mismatch");
        return inBox(q, _lo, _hi);
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
        int64_t i = 0;
        for (size_t c = 0; c < q.dim(); ++c)
            i = checkedAdd(i,
                           checkedMul(checkedSub(q[c], _lo[c]),
                                      _stride[c]));
        return static_cast<size_t>(i);
    }

    IVec _lo;
    IVec _hi;
    std::vector<int64_t> _stride;
    std::vector<T> _data;
};

} // namespace uov

#endif // UOV_MAPPING_EXPANDED_ARRAY_H
