/**
 * @file
 * A small loop-nest IR: exactly the program class the paper handles.
 *
 * A LoopNest is a perfect nest of depth d with constant integer bounds
 * whose body is a list of assignment statements.  Each statement
 * writes one array element and reads several, all through affine
 * accesses element = M*q + offset.  Uniform (constant-distance)
 * dependences arise when reads and the write share the same linear
 * part M; this is the "regular stencil of dependences" the paper
 * requires (Section 2), and the analysis layer checks it rather than
 * assuming it.
 */

#ifndef UOV_IR_PROGRAM_H
#define UOV_IR_PROGRAM_H

#include <string>
#include <vector>

#include "geometry/ivec.h"
#include "geometry/matrix.h"
#include "geometry/polyhedron.h"

namespace uov {

/** An affine array access: element = coef * q + offset. */
struct Access
{
    std::string array;
    IMatrix coef; ///< rank x depth linear part
    IVec offset;  ///< rank-dimensional constant part

    /** The element touched at iteration q. */
    IVec elementAt(const IVec &q) const;

    std::string str() const;
};

/** Identity-access helper: array[q + offset] at nest depth d. */
Access uniformAccess(std::string array, IVec offset);

/** One assignment statement: write = f(reads...). */
struct Statement
{
    std::string name;
    Access write;
    std::vector<Access> reads;
};

/** A perfect loop nest over the integer box [lo, hi]. */
class LoopNest
{
  public:
    LoopNest(std::string name, IVec lo, IVec hi);

    const std::string &name() const { return _name; }
    size_t depth() const { return _lo.dim(); }
    const IVec &lo() const { return _lo; }
    const IVec &hi() const { return _hi; }

    /** The iteration-space polyhedron (a box for this IR). */
    Polyhedron domain() const;

    /** Number of iterations; UovOverflowError past int64. */
    int64_t tripCount() const;

    /** Append a statement; validates access shapes against depth(). */
    void addStatement(Statement stmt);

    const std::vector<Statement> &statements() const { return _stmts; }
    const Statement &statement(size_t i) const;

    /** Index of the statement writing @p array, or npos. */
    size_t writerOf(const std::string &array) const;

    static constexpr size_t npos = SIZE_MAX;

    std::string str() const;

  private:
    std::string _name;
    IVec _lo;
    IVec _hi;
    std::vector<Statement> _stmts;
};

/** Canned loop nests mirroring the paper's codes (for tests/examples). */
namespace nests {

/** Figure 1(a): A[i,j] = f(A[i-1,j], A[i,j-1], A[i-1,j-1]). */
LoopNest simpleExample(int64_t n, int64_t m);

/** Section 5: 5-point stencil over time, B[t,i] from B[t-1, i-2..i+2]. */
LoopNest fivePointStencil(int64_t t_steps, int64_t len);

/**
 * Section 5: protein string matching scores D[i,j] from D[i-1,j],
 * D[i,j-1], D[i-1,j-1] (plus the weight table, which carries no
 * loop-carried dependence).
 */
LoopNest proteinMatching(int64_t n0, int64_t n1);

} // namespace nests

} // namespace uov

#endif // UOV_IR_PROGRAM_H
