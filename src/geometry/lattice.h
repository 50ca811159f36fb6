/**
 * @file
 * Lattice algebra: extended gcd, Bezout certificates for vectors, and
 * unimodular completion of a primitive vector.
 *
 * The d-dimensional generalization of the paper's 2-D mapping-vector
 * construction (Section 4.1) rests on these: a prime occupancy vector
 * ~ov is completed to a unimodular basis, and the quotient lattice
 * Z^d / Z*ov becomes the storage index space.
 */

#ifndef UOV_GEOMETRY_LATTICE_H
#define UOV_GEOMETRY_LATTICE_H

#include <cstdint>

#include "geometry/ivec.h"
#include "geometry/matrix.h"
#include "support/checked.h"

namespace uov {

/** Result of the extended Euclidean algorithm: a*x + b*y == g. */
struct ExtGcd
{
    int64_t g; ///< gcd(a, b), non-negative
    int64_t x; ///< Bezout coefficient of a
    int64_t y; ///< Bezout coefficient of b
};

/** Extended Euclid; g == gcd(a,b) >= 0 and a*x + b*y == g. */
ExtGcd extGcd(int64_t a, int64_t b);

/**
 * Bezout certificate for a vector: returns alpha with
 * alpha.dot(v) == content(v).
 * @pre v is not the zero vector
 */
IVec bezoutVector(const IVec &v);

/**
 * Unimodular completion: given a primitive vector v (content 1),
 * returns a d x d unimodular matrix U such that U * v == e_0 (the
 * first standard basis vector).
 *
 * Rows 1..d-1 of U then form a projection Z^d -> Z^{d-1} whose kernel
 * is exactly the lattice line Z*v -- the key to d-dimensional OV
 * storage mappings.
 *
 * @pre v.content() == 1
 */
IMatrix unimodularCompletion(const IVec &v);

/**
 * The projection basis of a primitive occupancy vector: d - 1 integer
 * rows whose joint kernel is exactly the lattice line Z*prim, so two
 * points share a storage class of prim iff every row gives them the
 * same value.  storageCellCount counts and StorageMapping lays out
 * one range per row, so a different basis is an edit here alone.
 *
 *   1-D:   no rows (every iteration projects to one slot);
 *   2-D:   mv = (-prim[1], prim[0]), the paper's Section 4.1 vector;
 *   d-D:   rows 1..d-1 of unimodularCompletion(prim).
 *
 * Calls visit(row) once per row, in order.  The 2-D row lives inline,
 * so the search's per-candidate objective allocates nothing.
 * @pre prim.content() == 1
 */
template <typename Visit>
void
ovProjectionRows(const IVec &prim, Visit &&visit)
{
    if (prim.dim() == 2) {
        visit(IVec{checkedNeg(prim[1]), prim[0]});
    } else if (prim.dim() >= 3) {
        IMatrix u = unimodularCompletion(prim);
        for (size_t r = 1; r < u.rows(); ++r)
            visit(u.row(r));
    }
}

} // namespace uov

#endif // UOV_GEOMETRY_LATTICE_H
