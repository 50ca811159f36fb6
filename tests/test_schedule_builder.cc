/**
 * @file
 * ScheduleBuilder: primitive composition, whole-composition legality
 * against the algebraic checkers, materialization as a Schedule that
 * covers the box exactly once, lowering to the C emitter's forms, and
 * the deterministic str()/operator== surface the tuner relies on.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/uov.h"
#include "schedule/builder.h"
#include "schedule/legality.h"
#include "support/error.h"

namespace uov {
namespace {

/** Every point of [lo, hi] visited exactly once. */
void
expectCoversBoxOnce(const Schedule &schedule, const IVec &lo,
                    const IVec &hi, size_t expected)
{
    std::set<std::vector<int64_t>> seen;
    size_t visits = 0;
    schedule.forEach(lo, hi, [&](const IVec &p) {
        ++visits;
        std::vector<int64_t> key(p.dim());
        for (size_t k = 0; k < p.dim(); ++k)
            key[k] = p[k];
        EXPECT_TRUE(seen.insert(key).second)
            << p.str() << " visited twice";
    });
    EXPECT_EQ(visits, expected);
    EXPECT_EQ(seen.size(), expected);
}

TEST(ScheduleBuilder, IdentityIsLexAndAlwaysLegal)
{
    ScheduleBuilder b(2);
    EXPECT_EQ(b.str(), "lex");
    EXPECT_EQ(b.depth(), 2u);
    EXPECT_TRUE(b.transform() == IMatrix::identity(2));
    EXPECT_FALSE(b.tiled());
    EXPECT_EQ(b.copies(), 1);
    EXPECT_TRUE(b.legal(stencils::simpleExample()));
    EXPECT_TRUE(b.legal(stencils::fivePoint()));

    auto lowered = b.lower(stencils::simpleExample());
    ASSERT_TRUE(lowered.has_value());
    EXPECT_EQ(lowered->form, LoweredForm::Lexicographic);
}

TEST(ScheduleBuilder, PrimitivesValidateTheirShapeEagerly)
{
    ScheduleBuilder b(2);
    EXPECT_THROW(b.reorder({0, 0}), UovUserError); // not a permutation
    EXPECT_THROW(b.reorder({0}), UovUserError);    // wrong arity
    EXPECT_THROW(b.skew(0, 0, 1), UovUserError);   // equal dims
    EXPECT_THROW(b.skew(0, 5, 1), UovUserError);   // out of range
    EXPECT_THROW(b.split(3, 8), UovUserError);     // out of range
    EXPECT_THROW(b.split(0, 0), UovUserError);     // size < 1
    EXPECT_THROW(b.unroll(0), UovUserError);       // factor < 1
    EXPECT_THROW(ScheduleBuilder(1).unrollJam(2), UovUserError);
}

TEST(ScheduleBuilder, ReorderLegalityMatchesTransformLegal)
{
    // simpleExample has dep (1,0): interchange makes it (0,1), still
    // lex-positive; but dep (1,-1) in threeVector flips to (-1,1).
    ScheduleBuilder swap(2);
    swap.reorder({1, 0});
    EXPECT_EQ(swap.str(), "reorder(1,0)");
    EXPECT_TRUE(swap.legal(stencils::simpleExample()));
    EXPECT_FALSE(swap.legal(stencils::threeVector()));
    EXPECT_THROW(swap.validate(stencils::threeVector()), UovUserError);

    // The builder's verdict must agree with the algebraic checker on
    // its own transform.
    EXPECT_TRUE(
        transformLegal(swap.transform(), stencils::simpleExample()));
    EXPECT_FALSE(
        transformLegal(swap.transform(), stencils::threeVector()));
}

TEST(ScheduleBuilder, TilingNeedsTheCanonicalSkewFirst)
{
    Stencil s = stencils::fivePoint(); // has deps (1,-2), (1,-1)
    // Rectangular tiling without skewing is illegal: transformed
    // distance (1,-2) has a negative component.
    ScheduleBuilder naive(2);
    naive.tile({4, 4});
    EXPECT_FALSE(naive.legal(s));

    // After the canonical skew every distance is non-negative and the
    // same tiling passes.
    ScheduleBuilder skewed(2);
    skewed.skewToNonNegative(s).tile({4, 4});
    EXPECT_TRUE(skewed.legal(s));
    EXPECT_TRUE(tilingLegal(skewed.transform(), s));
    EXPECT_TRUE(skewed.tiled());
}

TEST(ScheduleBuilder, JamLegalityMatchesJamLegal)
{
    // Dep (1,-1): jam distance 1 in [1,2) with lex-negative inner
    // suffix (-1) -> unroll-and-jam by 2 reorders a true dependence.
    Stencil carried({IVec{1, -1}});
    ScheduleBuilder jam2(2);
    jam2.unrollJam(2);
    EXPECT_FALSE(jam2.legal(carried));
    EXPECT_FALSE(jamLegal(carried.deps(), 0, 2));

    // Dep (0,1) is innermost-only: any jam factor is safe.
    Stencil inner({IVec{0, 1}});
    EXPECT_TRUE(jam2.legal(inner));
    EXPECT_TRUE(jamLegal(inner.deps(), 0, 2));
}

TEST(ScheduleBuilder, BuildScheduleCoversTheBoxExactlyOnce)
{
    IVec lo{0, 0}, hi{5, 7};
    size_t points = 6 * 8;

    ScheduleBuilder lex(2);
    expectCoversBoxOnce(*lex.buildSchedule(), lo, hi, points);

    ScheduleBuilder swapped(2);
    swapped.reorder({1, 0});
    expectCoversBoxOnce(*swapped.buildSchedule(), lo, hi, points);

    ScheduleBuilder tiled(2);
    tiled.skewToNonNegative(stencils::fivePoint()).tile({2, 3});
    expectCoversBoxOnce(*tiled.buildSchedule(), lo, hi, points);
}

TEST(ScheduleBuilder, BuildScheduleRespectsDependenceOrder)
{
    // Under any legal composition, a dependence source must execute
    // before its target.  Exhaustively check fivePoint over a small
    // box for the skew+tile composition.
    Stencil s = stencils::fivePoint();
    ScheduleBuilder b(2);
    b.skewToNonNegative(s).tile({2, 2});
    ASSERT_TRUE(b.legal(s));

    IVec lo{0, 0}, hi{4, 4};
    std::vector<IVec> order;
    b.buildSchedule()->forEach(
        lo, hi, [&](const IVec &p) { order.push_back(p); });
    auto rank = [&](const IVec &p) {
        for (size_t i = 0; i < order.size(); ++i)
            if (order[i] == p)
                return i;
        ADD_FAILURE() << p.str() << " never visited";
        return order.size();
    };
    for (const IVec &p : order) {
        for (const IVec &dep : s.deps()) {
            IVec src = p - dep;
            bool inside = true;
            for (size_t k = 0; k < src.dim(); ++k)
                inside = inside && src[k] >= lo[k] && src[k] <= hi[k];
            if (inside)
                EXPECT_LT(rank(src), rank(p))
                    << "dependence " << dep.str() << " violated at "
                    << p.str();
        }
    }
}

TEST(ScheduleBuilder, UntiledDimensionIsOneSweep)
{
    // Tiling only dimension 0 leaves dimension 1 one tile spanning the
    // box, even when the box's low corner is not a multiple of its
    // extent: row 0 whole, then row 1 whole.
    ScheduleBuilder b(2);
    b.split(0, 2);
    IVec lo{0, -3}, hi{1, 4};
    std::vector<IVec> order;
    b.buildSchedule()->forEach(
        lo, hi, [&](const IVec &p) { order.push_back(p); });
    std::vector<IVec> expected;
    for (int64_t i = 0; i <= 1; ++i)
        for (int64_t j = -3; j <= 4; ++j)
            expected.push_back(IVec{i, j});
    EXPECT_EQ(order, expected);
}

TEST(ScheduleBuilder, LowersToRegisterTiledAndSkewedTiled)
{
    ScheduleBuilder rt(2);
    rt.unroll(4).unrollJam(2);
    EXPECT_EQ(rt.str(), "unroll(4);jam(2)");
    EXPECT_EQ(rt.copies(), 8);
    auto lowered = rt.lower(stencils::simpleExample());
    ASSERT_TRUE(lowered.has_value());
    EXPECT_EQ(lowered->form, LoweredForm::RegisterTiled);
    EXPECT_EQ(lowered->unroll, 4);
    EXPECT_EQ(lowered->jam, 2);

    Stencil s = stencils::fivePoint();
    ScheduleBuilder st(2);
    st.skewToNonNegative(s).tile({8, 32});
    auto skewed = st.lower(s);
    ASSERT_TRUE(skewed.has_value());
    EXPECT_EQ(skewed->form, LoweredForm::SkewedTiled);
    EXPECT_EQ(skewed->tile_sizes, (std::vector<int64_t>{8, 32}));

    // A permuted composition has no native lowering.
    ScheduleBuilder perm(2);
    perm.reorder({1, 0});
    EXPECT_FALSE(perm.lower(stencils::simpleExample()).has_value());
}

TEST(ScheduleBuilder, StrAndEqualityAreStructural)
{
    Stencil s = stencils::fivePoint();
    ScheduleBuilder a(2), b(2);
    a.skewToNonNegative(s).tile({8, 32});
    b.skewToNonNegative(s).tile({8, 32});
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.str(), "skew_nonneg;tile(8,32)");

    ScheduleBuilder c(2);
    c.skewToNonNegative(s).tile({8, 64});
    EXPECT_FALSE(a == c);

    ScheduleBuilder u(2), v(2);
    u.unroll(4);
    v.unroll(4).unrollJam(2);
    EXPECT_FALSE(u == v);
}

} // namespace
} // namespace uov
