/**
 * @file
 * Unit tests for the loop-nest IR.
 */

#include <gtest/gtest.h>

#include "ir/program.h"
#include "support/error.h"

namespace uov {
namespace {

TEST(LoopNestIr, ConstructionAndBasics)
{
    LoopNest nest("n", IVec{1, 0}, IVec{4, 9});
    EXPECT_EQ(nest.depth(), 2u);
    EXPECT_EQ(nest.tripCount(), 4 * 10);
    EXPECT_TRUE(nest.domain().contains(IVec{2, 5}));
    EXPECT_FALSE(nest.domain().contains(IVec{0, 5}));
    EXPECT_THROW(LoopNest("bad", IVec{2, 0}, IVec{1, 9}), UovUserError);
    EXPECT_THROW(LoopNest("bad", IVec{1}, IVec{1, 2}), UovUserError);
}

TEST(LoopNestIr, TripCountOverflowThrows)
{
    // (2^32 + 1)^2 and (2^32)^2 iterations: past int64, and the
    // second wraps to 0 under unchecked multiplication.
    for (int64_t hi : {int64_t{1} << 32, (int64_t{1} << 32) - 1}) {
        LoopNest nest("big", IVec{0, 0}, IVec{hi, hi});
        EXPECT_THROW(nest.tripCount(), UovOverflowError) << "hi=" << hi;
    }
}

TEST(LoopNestIr, UniformAccessElementAt)
{
    Access a = uniformAccess("A", IVec{-1, 2});
    EXPECT_EQ(a.elementAt(IVec{5, 5}), (IVec{4, 7}));
    EXPECT_EQ(a.array, "A");
}

TEST(LoopNestIr, NonIdentityAccess)
{
    // A transposed access: element = (j, i).
    Access a;
    a.array = "T";
    a.coef = IMatrix({{0, 1}, {1, 0}});
    a.offset = IVec{0, 0};
    EXPECT_EQ(a.elementAt(IVec{2, 7}), (IVec{7, 2}));
}

TEST(LoopNestIr, StatementValidation)
{
    LoopNest nest("n", IVec{0, 0}, IVec{3, 3});
    Statement s;
    s.name = "bad";
    s.write = uniformAccess("A", IVec{0}); // wrong rank vs depth
    EXPECT_THROW(nest.addStatement(s), UovUserError);
}

TEST(LoopNestIr, SingleWriterPerArray)
{
    LoopNest nest("n", IVec{0, 0}, IVec{3, 3});
    Statement s1;
    s1.name = "w1";
    s1.write = uniformAccess("A", IVec{0, 0});
    nest.addStatement(s1);
    Statement s2;
    s2.name = "w2";
    s2.write = uniformAccess("A", IVec{0, 1});
    EXPECT_THROW(nest.addStatement(s2), UovUserError);
    EXPECT_EQ(nest.writerOf("A"), 0u);
    EXPECT_EQ(nest.writerOf("nope"), LoopNest::npos);
}

TEST(LoopNestIr, CannedNestsShape)
{
    LoopNest simple = nests::simpleExample(4, 6);
    EXPECT_EQ(simple.depth(), 2u);
    EXPECT_EQ(simple.statements().size(), 1u);
    EXPECT_EQ(simple.statement(0).reads.size(), 3u);

    LoopNest five = nests::fivePointStencil(10, 100);
    EXPECT_EQ(five.statement(0).reads.size(), 5u);
    EXPECT_EQ(five.tripCount(), 10 * 100);

    LoopNest psm = nests::proteinMatching(8, 9);
    EXPECT_EQ(psm.tripCount(), 72);
    EXPECT_THROW(psm.statement(1), UovUserError);
}

} // namespace
} // namespace uov
