/**
 * @file
 * Unit tests for IMatrix and lattice algebra (extended gcd, Bezout
 * vectors, unimodular completion).
 */

#include <gtest/gtest.h>

#include <numeric>

#include "geometry/lattice.h"
#include "geometry/matrix.h"
#include "support/error.h"

namespace uov {
namespace {

TEST(IMatrix, IdentityAndAccess)
{
    IMatrix i3 = IMatrix::identity(3);
    EXPECT_EQ(i3(0, 0), 1);
    EXPECT_EQ(i3(0, 1), 0);
    EXPECT_EQ(i3.rows(), 3u);
    EXPECT_THROW(i3(3, 0), UovInternalError);
}

TEST(IMatrix, MultiplyMatrixAndVector)
{
    IMatrix a({{1, 2}, {3, 4}});
    IMatrix b({{0, 1}, {1, 0}});
    IMatrix ab = a * b;
    EXPECT_EQ(ab(0, 0), 2);
    EXPECT_EQ(ab(0, 1), 1);
    EXPECT_EQ(ab(1, 0), 4);
    EXPECT_EQ(ab(1, 1), 3);

    EXPECT_EQ(a * IVec({5, 7}), (IVec{19, 43}));
}

TEST(IMatrix, Determinant)
{
    EXPECT_EQ(IMatrix({{1, 2}, {3, 4}}).determinant(), -2);
    EXPECT_EQ(IMatrix::identity(4).determinant(), 1);
    EXPECT_EQ(IMatrix({{2, 0}, {0, 3}}).determinant(), 6);
    // Singular.
    EXPECT_EQ(IMatrix({{1, 2}, {2, 4}}).determinant(), 0);
    // Needs a pivot swap.
    EXPECT_EQ(IMatrix({{0, 1}, {1, 0}}).determinant(), -1);
    // 3x3 with mixed signs.
    EXPECT_EQ(IMatrix({{2, -1, 0}, {-1, 2, -1}, {0, -1, 2}}).determinant(),
              4);
}

TEST(IMatrix, InverseUnimodular)
{
    IMatrix u({{2, 1}, {1, 1}}); // det 1
    IMatrix inv = u.inverseUnimodular();
    EXPECT_EQ(u * inv, IMatrix::identity(2));
    EXPECT_EQ(inv * u, IMatrix::identity(2));

    IMatrix v({{0, 1}, {1, 0}}); // det -1
    EXPECT_EQ(v * v.inverseUnimodular(), IMatrix::identity(2));

    EXPECT_THROW(IMatrix({{2, 0}, {0, 2}}).inverseUnimodular(),
                 UovUserError);
}

TEST(IMatrix, RowOpsAndTranspose)
{
    IMatrix m({{1, 2}, {3, 4}});
    m.addRowMultiple(1, 0, -3);
    EXPECT_EQ(m(1, 0), 0);
    EXPECT_EQ(m(1, 1), -2);

    IMatrix t = IMatrix({{1, 2, 3}}).transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 1u);
    EXPECT_EQ(t(2, 0), 3);
}

TEST(ExtGcdTest, BasicIdentity)
{
    for (int64_t a : {-36, -5, 0, 7, 48}) {
        for (int64_t b : {-27, -1, 0, 9, 30}) {
            ExtGcd e = extGcd(a, b);
            EXPECT_EQ(e.g, std::gcd(std::abs(a), std::abs(b)));
            EXPECT_EQ(a * e.x + b * e.y, e.g)
                << "a=" << a << " b=" << b;
        }
    }
}

TEST(BezoutVectorTest, CertificateMatchesContent)
{
    for (const IVec &v : {IVec{3, 5}, IVec{4, 6}, IVec{0, 7}, IVec{-4, 6},
                          IVec{2, 0, 3}, IVec{6, 10, 15}, IVec{0, 0, -5}}) {
        IVec alpha = bezoutVector(v);
        EXPECT_EQ(alpha.dot(v), v.content()) << v.str();
    }
    EXPECT_THROW(bezoutVector(IVec{0, 0}), UovUserError);
}

TEST(UnimodularCompletionTest, MapsVectorToE0)
{
    for (const IVec &v :
         {IVec{1, 0}, IVec{0, 1}, IVec{1, 1}, IVec{2, 3}, IVec{-3, 5},
          IVec{1, 0, 0}, IVec{2, 3, 5}, IVec{7, -4, 9}, IVec{0, 1, 0, 0},
          IVec{3, 5, 7, 11}}) {
        IMatrix u = unimodularCompletion(v);
        EXPECT_TRUE(u.isUnimodular()) << v.str();
        IVec e = u * v;
        EXPECT_EQ(e[0], 1) << v.str();
        for (size_t i = 1; i < e.dim(); ++i)
            EXPECT_EQ(e[i], 0) << v.str();
        // Rows 1..d-1 annihilate v: the projection has kernel Z*v.
        for (size_t r = 1; r < u.rows(); ++r)
            EXPECT_EQ(u.row(r).dot(v), 0) << v.str();
    }
}

TEST(UnimodularCompletionTest, RejectsNonPrimitive)
{
    EXPECT_THROW(unimodularCompletion(IVec{2, 4}), UovUserError);
    EXPECT_THROW(unimodularCompletion(IVec{0, 0}), UovUserError);
}

} // namespace
} // namespace uov
