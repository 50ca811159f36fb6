/**
 * @file
 * Unit tests for storage-cell counting (Figures 3 and 6, Tables 1/2
 * storage columns), the pinned 3-D/4-D objective, and the known-bounds
 * search radius.
 */

#include <gtest/gtest.h>

#include "core/storage_count.h"
#include "geometry/lattice.h"
#include "support/error.h"

namespace uov {
namespace {

TEST(StorageCount, MappingVector2D)
{
    EXPECT_EQ(mappingVector2D(IVec{1, 1}), (IVec{-1, 1}));
    EXPECT_EQ(mappingVector2D(IVec{3, 1}), (IVec{-1, 3}));
    // Non-prime OVs use the primitive part.
    EXPECT_EQ(mappingVector2D(IVec{2, 0}), (IVec{0, 1}));
    EXPECT_EQ(mappingVector2D(IVec{3, 0}), (IVec{0, 1}));
    EXPECT_THROW(mappingVector2D(IVec{0, 0}), UovUserError);
    EXPECT_THROW(mappingVector2D(IVec{1, 1, 1}), UovUserError);
}

TEST(StorageCount, Figure6RectangleIsNPlusMPlusOne)
{
    // Figure 6: ISG rectangle with corners (0,0)..(n,m), ov=(1,1):
    // |mv.xp1 - mv.xp2| + 1 = n + m + 1.
    int64_t n = 8, m = 5;
    Polyhedron isg = Polyhedron::box(IVec{0, 0}, IVec{n, m});
    EXPECT_EQ(storageCellCount(IVec{1, 1}, isg), n + m + 1);
    EXPECT_EQ(storageCellCountExact(IVec{1, 1}, isg), n + m + 1);
}

TEST(StorageCount, Figure3LongerOvCanNeedLessStorage)
{
    // Figure 3: over the parallelogram (1,1),(1,6),(10,4),(10,9) the
    // shorter ov2=(3,0) needs 27 cells while the longer ov1=(3,1)
    // needs only 16.
    Polyhedron isg = Polyhedron::fromVertices2D(
        {IVec{1, 1}, IVec{1, 6}, IVec{10, 4}, IVec{10, 9}});
    EXPECT_EQ(storageCellCount(IVec{3, 1}, isg), 16);
    EXPECT_EQ(storageCellCount(IVec{3, 0}, isg), 27);
    EXPECT_GT((IVec{3, 1}).normSquared(), (IVec{3, 0}).normSquared());
}

TEST(StorageCount, FivePointStencilTwoRows)
{
    // Table 1: the 5-point stencil's UOV (2,0) over a T x L ISG costs
    // ~2 rows of length L+1.
    int64_t t_steps = 100, len = 50;
    Polyhedron isg = Polyhedron::box(IVec{0, 0}, IVec{t_steps, len});
    EXPECT_EQ(storageCellCount(IVec{2, 0}, isg), 2 * (len + 1));
    EXPECT_EQ(storageCellCountExact(IVec{2, 0}, isg), 2 * (len + 1));
}

TEST(StorageCount, ExactMatchesFormulaForUnitMappingVectors)
{
    // When the mapping vector's entries are all in {-1, 0, 1}, every
    // value in the projection interval is attained, so allocation ==
    // occupancy.  These are the OVs that arise in the paper's codes.
    Polyhedron isg = Polyhedron::box(IVec{0, 0}, IVec{7, 9});
    // (2,0) also keeps equality: each projection line runs the full
    // length of an axis, so both mod-classes are always occupied.
    for (const IVec &ov :
         {IVec{1, 0}, IVec{0, 1}, IVec{1, 1}, IVec{1, -1}, IVec{2, 0}}) {
        EXPECT_EQ(storageCellCount(ov, isg),
                  storageCellCountExact(ov, isg))
            << ov.str();
    }
}

TEST(StorageCount, AllocationUpperBoundsOccupancy)
{
    // Allocation follows the paper's formula (projection interval x
    // gcd).  Occupancy can be slightly smaller: skew mapping vectors
    // leave Frobenius gaps at the ISG corners, and for non-prime OVs a
    // few corner lines hold fewer than gcd classes.
    Polyhedron isg = Polyhedron::box(IVec{0, 0}, IVec{7, 9});
    for (const IVec &ov :
         {IVec{2, 1}, IVec{3, -2}, IVec{2, 0}, IVec{2, 2}, IVec{4, -2}}) {
        int64_t alloc = storageCellCount(ov, isg);
        int64_t used = storageCellCountExact(ov, isg);
        EXPECT_GE(alloc, used) << ov.str();
        // The mapping still fits everything it maps.
        EXPECT_GT(used, 0) << ov.str();
    }
}

TEST(StorageCount, NonPrimeMultipliesClasses)
{
    Polyhedron isg = Polyhedron::box(IVec{0, 0}, IVec{10, 10});
    int64_t prime = storageCellCount(IVec{1, 1}, isg);
    int64_t doubled = storageCellCount(IVec{2, 2}, isg);
    EXPECT_EQ(doubled, 2 * prime);
}

TEST(StorageCount, ThreeDimensionalBox)
{
    // ov = (1,0,0) on box T x N x M: cells = (N+1)*(M+1) (one slab).
    Polyhedron isg = Polyhedron::box(IVec{0, 0, 0}, IVec{9, 4, 6});
    EXPECT_EQ(storageCellCount(IVec{1, 0, 0}, isg), 5 * 7);
    EXPECT_EQ(storageCellCountExact(IVec{1, 0, 0}, isg), 5 * 7);
    // ov = (2,0,0): two slabs.
    EXPECT_EQ(storageCellCount(IVec{2, 0, 0}, isg), 2 * 5 * 7);
}

TEST(StorageCount, ThreeDimensionalDiagonalExactVsEstimate)
{
    Polyhedron isg = Polyhedron::box(IVec{0, 0, 0}, IVec{4, 4, 4});
    // The bounding-box formula upper-bounds the exact count.
    for (const IVec &ov : {IVec{1, 1, 0}, IVec{1, 1, 1}, IVec{2, 1, 0}}) {
        EXPECT_GE(storageCellCount(ov, isg),
                  storageCellCountExact(ov, isg))
            << ov.str();
        EXPECT_GT(storageCellCountExact(ov, isg), 0) << ov.str();
    }
}

TEST(StorageCount, KnownBoundsRadiusCoversInitialOv)
{
    Polyhedron isg = Polyhedron::box(IVec{0, 0}, IVec{20, 20});
    IVec ovo{2, 2};
    int64_t r_sq = knownBoundsRadiusSquared(ovo, isg);
    EXPECT_GE(r_sq, ovo.normSquared());
}

TEST(StorageCount, KnownBoundsRadiusFigure3AdmitsLongerWinner)
{
    // The radius must be generous enough that (3,1) stays in range
    // even though |(3,1)| > |(3,0)|.
    Polyhedron isg = Polyhedron::fromVertices2D(
        {IVec{1, 1}, IVec{1, 6}, IVec{10, 4}, IVec{10, 9}});
    int64_t r_sq = knownBoundsRadiusSquared(IVec{3, 0}, isg);
    EXPECT_GE(r_sq, (IVec{3, 1}).normSquared());
}

TEST(StorageCount, PinnedObjectiveIn3DAnd4D)
{
    // In 3 or more dimensions the objective multiplies projections on
    // rows 1..d-1 of unimodularCompletion(ov / g).  Any other valid
    // completion would also map ov to e0, but would change these
    // counts and with them which OV the bounded search returns, so
    // both the counts and the exact rows are pinned.
    Polyhedron box3 = Polyhedron::box(IVec{-3, 0, -2}, IVec{4, 5, 6});
    Polyhedron box4 =
        Polyhedron::box(IVec{-1, 0, -2, 1}, IVec{3, 4, 2, 5});
    struct Pin
    {
        IVec ov;
        int64_t cells;
        IMatrix u;
    };
    const Pin pins[] = {
        {IVec{2, -4, 6}, 1344, IMatrix({{0, 1, 1}, {-1, 1, 1}, {0, -3, -2}})},
        {IVec{3, 0, -6}, 414, IMatrix({{1, 0, 0}, {-2, 0, -1}, {0, 1, 0}})},
        {IVec{1, -2, 3}, 672, IMatrix({{0, 1, 1}, {-1, 1, 1}, {0, -3, -2}})},
        {IVec{4, 6, -2}, 1440, IMatrix({{0, 0, -1}, {-1, 0, -2}, {0, 1, 3}})},
        {IVec{0, 3, -6}, 456, IMatrix({{0, 1, 0}, {-1, 0, 0}, {0, 2, 1}})},
        {IVec{5, -3, 2}, 2555,
         IMatrix({{0, -1, -1}, {-1, -5, -5}, {0, -2, -3}})},
        {IVec{1, 1, -1}, 224, IMatrix({{0, 0, -1}, {-1, 0, -1}, {0, 1, 1}})},
        {IVec{0, 0, 2}, 96, IMatrix({{0, 0, 1}, {-1, 0, 0}, {0, -1, 0}})},
        {IVec{2, -4, 6, 8}, 15834,
         IMatrix({{0, 0, -1, 1},
                  {-1, 0, -1, 1},
                  {0, -1, 2, -2},
                  {0, 0, -4, 3}})},
        {IVec{1, -2, 3, -5}, 16269,
         IMatrix({{0, 0, 2, 1},
                  {-1, 0, 2, 1},
                  {0, -1, -4, -2},
                  {0, 0, 5, 3}})},
        {IVec{3, 0, -3, 6}, 1755,
         IMatrix({{0, 0, -1, 0},
                  {-1, 0, -1, 0},
                  {0, -1, 0, 0},
                  {0, 0, -2, -1}})},
        {IVec{0, 2, -2, 4}, 1170,
         IMatrix({{0, 0, -1, 0},
                  {-1, 0, 0, 0},
                  {0, -1, -1, 0},
                  {0, 0, -2, -1}})},
        {IVec{1, 1, 1, 1}, 729,
         IMatrix({{0, 0, 0, 1},
                  {-1, 0, 0, 1},
                  {0, -1, 0, 1},
                  {0, 0, -1, 1}})},
        {IVec{-2, 3, 0, 1}, 1105,
         IMatrix({{0, 0, 0, 1},
                  {-1, 0, 0, -2},
                  {0, -1, 0, 3},
                  {0, 0, -1, 0}})},
    };
    for (const Pin &pin : pins) {
        const Polyhedron &box = pin.ov.dim() == 3 ? box3 : box4;
        EXPECT_EQ(storageCellCount(pin.ov, box), pin.cells) << pin.ov.str();
        EXPECT_EQ(unimodularCompletion(pin.ov.dividedBy(pin.ov.content())),
                  pin.u)
            << pin.ov.str();
    }
}

} // namespace
} // namespace uov
