#include "geometry/matrix.h"

#include <sstream>

#include "geometry/rational.h"
#include "support/checked.h"
#include "support/error.h"

namespace uov {

IMatrix::IMatrix(size_t rows, size_t cols)
    : _rows(rows), _cols(cols), _data(rows * cols, 0)
{
}

IMatrix::IMatrix(std::vector<std::vector<int64_t>> rows)
{
    _rows = rows.size();
    _cols = _rows ? rows[0].size() : 0;
    _data.reserve(_rows * _cols);
    for (const auto &r : rows) {
        UOV_REQUIRE(r.size() == _cols, "ragged matrix rows");
        for (int64_t v : r)
            _data.push_back(v);
    }
}

IMatrix
IMatrix::identity(size_t n)
{
    IMatrix m(n, n);
    for (size_t i = 0; i < n; ++i)
        m(i, i) = 1;
    return m;
}

int64_t
IMatrix::operator()(size_t r, size_t c) const
{
    UOV_CHECK(r < _rows && c < _cols, "matrix index out of range");
    return _data[idx(r, c)];
}

int64_t &
IMatrix::operator()(size_t r, size_t c)
{
    UOV_CHECK(r < _rows && c < _cols, "matrix index out of range");
    return _data[idx(r, c)];
}

IVec
IMatrix::row(size_t r) const
{
    UOV_CHECK(r < _rows, "row out of range");
    return IVec(_data.data() + idx(r, 0), _cols);
}

IMatrix
IMatrix::operator*(const IMatrix &o) const
{
    UOV_CHECK(_cols == o._rows, "matrix shape mismatch in multiply");
    IMatrix r(_rows, o._cols);
    for (size_t i = 0; i < _rows; ++i) {
        for (size_t k = 0; k < _cols; ++k) {
            int64_t a = _data[idx(i, k)];
            if (a == 0)
                continue;
            for (size_t j = 0; j < o._cols; ++j) {
                r(i, j) = checkedAdd(r(i, j),
                                     checkedMul(a, o(k, j)));
            }
        }
    }
    return r;
}

IVec
IMatrix::operator*(const IVec &v) const
{
    UOV_CHECK(_cols == v.dim(), "matrix/vector shape mismatch");
    IVec r(_rows);
    for (size_t i = 0; i < _rows; ++i) {
        int64_t acc = 0;
        for (size_t j = 0; j < _cols; ++j)
            acc = checkedAdd(acc, checkedMul(_data[idx(i, j)], v[j]));
        r[i] = acc;
    }
    return r;
}

bool
IMatrix::operator==(const IMatrix &o) const
{
    return _rows == o._rows && _cols == o._cols && _data == o._data;
}

IMatrix
IMatrix::transposed() const
{
    IMatrix r(_cols, _rows);
    for (size_t i = 0; i < _rows; ++i)
        for (size_t j = 0; j < _cols; ++j)
            r(j, i) = _data[idx(i, j)];
    return r;
}

int64_t
IMatrix::determinant() const
{
    UOV_CHECK(_rows == _cols, "determinant of non-square matrix");
    size_t n = _rows;
    if (n == 0)
        return 1;

    // Bareiss fraction-free elimination on a working copy.
    std::vector<int64_t> a = _data;
    auto at = [&](size_t r, size_t c) -> int64_t & { return a[r * n + c]; };

    int64_t sign = 1;
    int64_t prev = 1;
    for (size_t k = 0; k + 1 < n; ++k) {
        if (at(k, k) == 0) {
            size_t piv = k + 1;
            while (piv < n && at(piv, k) == 0)
                ++piv;
            if (piv == n)
                return 0;
            for (size_t c = 0; c < n; ++c)
                std::swap(at(k, c), at(piv, c));
            sign = -sign;
        }
        for (size_t i = k + 1; i < n; ++i) {
            for (size_t j = k + 1; j < n; ++j) {
                int64_t num = checkedSub(
                    checkedMul(at(i, j), at(k, k)),
                    checkedMul(at(i, k), at(k, j)));
                UOV_CHECK(num % prev == 0, "Bareiss divisibility");
                at(i, j) = num / prev;
            }
            at(i, k) = 0;
        }
        prev = at(k, k);
    }
    return checkedMul(sign, at(n - 1, n - 1));
}

bool
IMatrix::isUnimodular() const
{
    int64_t d = determinant();
    return d == 1 || d == -1;
}

IMatrix
IMatrix::inverseUnimodular() const
{
    int64_t det = determinant();
    UOV_REQUIRE(det == 1 || det == -1,
                "inverseUnimodular requires |det| == 1, det=" << det);
    size_t n = _rows;
    IMatrix inv(n, n);
    // Adjugate: inv(i,j) = det * cofactor(j,i). For our tiny n this
    // minor-expansion cost is irrelevant.
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
            IMatrix minor(n - 1, n - 1);
            for (size_t r = 0, mr = 0; r < n; ++r) {
                if (r == j)
                    continue;
                for (size_t c = 0, mc = 0; c < n; ++c) {
                    if (c == i)
                        continue;
                    minor(mr, mc) = (*this)(r, c);
                    ++mc;
                }
                ++mr;
            }
            int64_t cof = minor.determinant();
            if ((i + j) % 2 == 1)
                cof = checkedNeg(cof);
            inv(i, j) = checkedMul(det, cof);
        }
    }
    return inv;
}

void
IMatrix::addRowMultiple(size_t r, size_t s, int64_t k)
{
    UOV_CHECK(r != s && r < _rows && s < _rows, "bad row op");
    for (size_t c = 0; c < _cols; ++c)
        _data[idx(r, c)] =
            checkedAdd(_data[idx(r, c)], checkedMul(k, _data[idx(s, c)]));
}

std::string
IMatrix::str() const
{
    std::ostringstream oss;
    oss << *this;
    return oss.str();
}

std::ostream &
operator<<(std::ostream &os, const IMatrix &m)
{
    os << "[";
    for (size_t r = 0; r < m.rows(); ++r) {
        if (r)
            os << "; ";
        for (size_t c = 0; c < m.cols(); ++c) {
            if (c)
                os << " ";
            os << m(r, c);
        }
    }
    os << "]";
    return os;
}

} // namespace uov
