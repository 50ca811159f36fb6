/**
 * @file
 * IMatrix: a small exact integer matrix.
 *
 * Sized for loop-nest dimensionalities (d <= ~6), not for numerics:
 * determinants use the Bareiss fraction-free algorithm, and inverses
 * are only provided for unimodular matrices (via the adjugate).
 */

#ifndef UOV_GEOMETRY_MATRIX_H
#define UOV_GEOMETRY_MATRIX_H

#include <cstdint>
#include <ostream>
#include <vector>

#include "geometry/ivec.h"

namespace uov {

/** Dense integer matrix with checked arithmetic. */
class IMatrix
{
  public:
    IMatrix() : _rows(0), _cols(0) {}

    /** Zero matrix of shape rows x cols. */
    IMatrix(size_t rows, size_t cols);

    /** From a row-major list of rows. */
    explicit IMatrix(std::vector<std::vector<int64_t>> rows);

    static IMatrix identity(size_t n);

    size_t rows() const { return _rows; }
    size_t cols() const { return _cols; }

    int64_t operator()(size_t r, size_t c) const;
    int64_t &operator()(size_t r, size_t c);

    IVec row(size_t r) const;

    IMatrix operator*(const IMatrix &o) const;
    IVec operator*(const IVec &v) const;
    bool operator==(const IMatrix &o) const;

    IMatrix transposed() const;

    /** Exact determinant (Bareiss). @pre square */
    int64_t determinant() const;

    /** True iff |det| == 1. @pre square */
    bool isUnimodular() const;

    /**
     * Exact inverse of a unimodular matrix (integer adjugate / det).
     * @pre isUnimodular()
     */
    IMatrix inverseUnimodular() const;

    /** Elementary row op: row[r] += k * row[s]. @pre r != s */
    void addRowMultiple(size_t r, size_t s, int64_t k);

    std::string str() const;

  private:
    size_t _rows;
    size_t _cols;
    std::vector<int64_t> _data; // row-major

    size_t idx(size_t r, size_t c) const { return r * _cols + c; }
};

std::ostream &operator<<(std::ostream &os, const IMatrix &m);

} // namespace uov

#endif // UOV_GEOMETRY_MATRIX_H
