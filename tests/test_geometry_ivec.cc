/**
 * @file
 * Unit tests for IVec and Rational.
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <unordered_set>

#include "geometry/ivec.h"
#include "geometry/rational.h"
#include "support/error.h"

namespace uov {
namespace {

TEST(IVec, ConstructionAndAccess)
{
    IVec v{1, -2, 3};
    EXPECT_EQ(v.dim(), 3u);
    EXPECT_EQ(v[0], 1);
    EXPECT_EQ(v[1], -2);
    EXPECT_EQ(v[2], 3);
    EXPECT_THROW(v[3], UovInternalError);

    IVec zero(2);
    EXPECT_TRUE(zero.isZero());
    EXPECT_FALSE(v.isZero());
}

TEST(IVec, Arithmetic)
{
    IVec a{1, 2}, b{3, -1};
    EXPECT_EQ(a + b, (IVec{4, 1}));
    EXPECT_EQ(a - b, (IVec{-2, 3}));
    EXPECT_EQ(-a, (IVec{-1, -2}));
    EXPECT_EQ(a * 3, (IVec{3, 6}));
    IVec c = a;
    c += b;
    EXPECT_EQ(c, (IVec{4, 1}));
}

TEST(IVec, DimensionMismatchThrows)
{
    IVec a{1, 2}, b{1, 2, 3};
    EXPECT_THROW(a + b, UovInternalError);
    EXPECT_THROW(a.dot(b), UovInternalError);
}

TEST(IVec, LexPositive)
{
    EXPECT_TRUE((IVec{1, -5}).isLexPositive());
    EXPECT_TRUE((IVec{0, 1}).isLexPositive());
    EXPECT_TRUE((IVec{0, 0, 2}).isLexPositive());
    EXPECT_FALSE((IVec{0, 0}).isLexPositive());
    EXPECT_FALSE((IVec{-1, 100}).isLexPositive());
    EXPECT_FALSE((IVec{0, -1, 5}).isLexPositive());
}

TEST(IVec, Norms)
{
    IVec v{3, -4};
    EXPECT_EQ(v.dot(v), 25);
    EXPECT_EQ(v.normSquared(), 25);
    EXPECT_EQ(v.normInf(), 4);
}

TEST(IVec, ContentAndPrimality)
{
    EXPECT_EQ((IVec{2, 0}).content(), 2);
    EXPECT_EQ((IVec{6, -9}).content(), 3);
    EXPECT_EQ((IVec{3, 5}).content(), 1);
    EXPECT_TRUE((IVec{3, 5}).isPrime());
    EXPECT_FALSE((IVec{2, 0}).isPrime());
    EXPECT_EQ((IVec{0, 0}).content(), 0);
    EXPECT_EQ((IVec{6, -9}).dividedBy(3), (IVec{2, -3}));
    EXPECT_THROW((IVec{6, -9}).dividedBy(4), UovInternalError);
}

TEST(IVec, HashAndEquality)
{
    std::unordered_set<IVec, IVecHash> set;
    set.insert(IVec{1, 2});
    set.insert(IVec{1, 2});
    set.insert(IVec{2, 1});
    EXPECT_EQ(set.size(), 2u);
    EXPECT_TRUE(set.count(IVec{1, 2}));
    EXPECT_FALSE(set.count(IVec{3, 3}));
}

TEST(IVec, Printing)
{
    EXPECT_EQ((IVec{1, -2}).str(), "(1, -2)");
    EXPECT_EQ(IVec{}.str(), "()");
}

TEST(IVec, PrintsInt64LimitsAndSpilledDimensions)
{
    const int64_t lo = std::numeric_limits<int64_t>::min();
    const int64_t hi = std::numeric_limits<int64_t>::max();
    EXPECT_EQ((IVec{lo, 0, hi}).str(),
              "(-9223372036854775808, 0, 9223372036854775807)");
    IVec six{1, -2, 3, -4, 5, lo};
    EXPECT_EQ(six.str(), "(1, -2, 3, -4, 5, -9223372036854775808)");
    // operator<< writes the same text whatever the stream's flags.
    std::ostringstream oss;
    oss << std::hex << std::showpos << six;
    EXPECT_EQ(oss.str(), six.str());

    TextWriter out;
    out << "n=" << size_t{18446744073709551615u} << ' ' << -7 << ' ' << six;
    EXPECT_EQ(out.take(),
              "n=18446744073709551615 -7 (1, -2, 3, -4, 5, "
              "-9223372036854775808)");
}

TEST(IVec, OverflowPropagates)
{
    IVec big{INT64_MAX, 0};
    EXPECT_THROW(big + big, UovOverflowError);
    EXPECT_THROW(big * 2, UovOverflowError);
}

TEST(Rational, NormalizationAndSign)
{
    Rational r(6, -4);
    EXPECT_EQ(r.num(), -3);
    EXPECT_EQ(r.den(), 2);
    EXPECT_EQ(Rational(0, 7), Rational(0));
    EXPECT_THROW(Rational(1, 0), UovUserError);
}

TEST(Rational, Arithmetic)
{
    Rational a(1, 2), b(1, 3);
    EXPECT_EQ(a + b, Rational(5, 6));
    EXPECT_EQ(a - b, Rational(1, 6));
    EXPECT_EQ(a * b, Rational(1, 6));
    EXPECT_EQ(a / b, Rational(3, 2));
    EXPECT_EQ(-a, Rational(-1, 2));
    EXPECT_THROW(a / Rational(0), UovUserError);
}

TEST(Rational, Comparisons)
{
    EXPECT_LT(Rational(1, 3), Rational(1, 2));
    EXPECT_LT(Rational(-1, 2), Rational(-1, 3));
    EXPECT_GE(Rational(2), Rational(2));
    EXPECT_GT(Rational(7, 3), Rational(2));
}

TEST(Rational, FloorCeil)
{
    EXPECT_EQ(Rational(7, 2).floor(), 3);
    EXPECT_EQ(Rational(7, 2).ceil(), 4);
    EXPECT_EQ(Rational(-7, 2).floor(), -4);
    EXPECT_EQ(Rational(-7, 2).ceil(), -3);
    EXPECT_EQ(Rational(4).floor(), 4);
    EXPECT_EQ(Rational(4).ceil(), 4);
}

TEST(Rational, CrossReductionAvoidsOverflow)
{
    // (2^40 / 3) * (3 / 2^40) must not overflow intermediates.
    Rational big(1ll << 40, 3);
    Rational inv(3, 1ll << 40);
    EXPECT_EQ(big * inv, Rational(1));
}

} // namespace
} // namespace uov
