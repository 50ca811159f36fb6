/**
 * @file
 * Unit tests for StorageMapping: the paper's Section 4 requirements
 * (OV-invariance, integrality, consecutiveness), the worked mappings of
 * Figures 1(b) and 5, interleaved vs blocked layouts, and the
 * d-dimensional generalization.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/storage_count.h"
#include "mapping/storage_mapping.h"
#include "support/error.h"

namespace uov {
namespace {

/** All integer points of a 2-D box. */
std::vector<IVec>
boxPoints(int64_t x0, int64_t y0, int64_t x1, int64_t y1)
{
    std::vector<IVec> pts;
    for (int64_t x = x0; x <= x1; ++x)
        for (int64_t y = y0; y <= y1; ++y)
            pts.push_back(IVec{x, y});
    return pts;
}

TEST(StorageMapping, Figure1bSimpleExampleMapping)
{
    // Figure 1(b): ov = (1,1) over the (0..n) x (0..m) ISG (including
    // the boundary input nodes); SM(q) = (-1,1).q + n, n+m+1 cells.
    int64_t n = 6, m = 4;
    Polyhedron isg = Polyhedron::box(IVec{0, 0}, IVec{n, m});
    StorageMapping sm = StorageMapping::create(IVec{1, 1}, isg);

    EXPECT_EQ(sm.cellCount(), n + m + 1);
    EXPECT_EQ(sm.modClasses(), 1);
    for (const auto &q : boxPoints(0, 0, n, m))
        EXPECT_EQ(sm(q), -q[0] + q[1] + n) << q.str();
}

TEST(StorageMapping, Figure5InterleavedFivePoint)
{
    // Figure 5: ov = (2,0), interleaved: SM(q) = (0,2).q + (q_t mod 2).
    int64_t t_max = 9, len = 7;
    Polyhedron isg = Polyhedron::box(IVec{0, 0}, IVec{t_max, len});
    StorageMapping sm = StorageMapping::create(
        IVec{2, 0}, isg, ModLayout::Interleaved);

    EXPECT_EQ(sm.cellCount(), 2 * (len + 1));
    EXPECT_EQ(sm.modClasses(), 2);
    for (const auto &q : boxPoints(0, 0, t_max, len))
        EXPECT_EQ(sm(q), 2 * q[1] + (q[0] % 2)) << q.str();
}

TEST(StorageMapping, Figure5BlockedFivePoint)
{
    // Blocked layout: SM(q) = (0,1).q + (q_t mod 2) * (len+1).
    int64_t t_max = 9, len = 7;
    Polyhedron isg = Polyhedron::box(IVec{0, 0}, IVec{t_max, len});
    StorageMapping sm =
        StorageMapping::create(IVec{2, 0}, isg, ModLayout::Blocked);

    EXPECT_EQ(sm.cellCount(), 2 * (len + 1));
    for (const auto &q : boxPoints(0, 0, t_max, len))
        EXPECT_EQ(sm(q), q[1] + (q[0] % 2) * (len + 1)) << q.str();
}

TEST(StorageMapping, OvInvarianceRequirement)
{
    // Requirement 1 (Section 4.1): q and q + ov share a cell.
    Polyhedron isg = Polyhedron::box(IVec{0, 0}, IVec{12, 12});
    for (const IVec &ov :
         {IVec{1, 1}, IVec{2, 0}, IVec{2, 1}, IVec{3, -1}, IVec{2, 2},
          IVec{4, 6}}) {
        for (ModLayout layout :
             {ModLayout::Interleaved, ModLayout::Blocked}) {
            StorageMapping sm = StorageMapping::create(ov, isg, layout);
            for (const auto &q : boxPoints(0, 0, 6, 6))
                EXPECT_EQ(sm(q), sm(q + ov))
                    << ov.str() << " q=" << q.str();
        }
    }
}

TEST(StorageMapping, RangeWithinCellCount)
{
    // Requirements 2-3: integer results packed into [0, cells).
    Polyhedron isg = Polyhedron::box(IVec{0, 0}, IVec{10, 8});
    for (const IVec &ov :
         {IVec{1, 1}, IVec{2, 0}, IVec{2, 1}, IVec{1, -2}, IVec{3, 3}}) {
        for (ModLayout layout :
             {ModLayout::Interleaved, ModLayout::Blocked}) {
            StorageMapping sm = StorageMapping::create(ov, isg, layout);
            for (const auto &q : boxPoints(0, 0, 10, 8)) {
                int64_t i = sm(q);
                EXPECT_GE(i, 0) << ov.str() << " q=" << q.str();
                EXPECT_LT(i, sm.cellCount())
                    << ov.str() << " q=" << q.str();
            }
        }
    }
}

TEST(StorageMapping, ConsecutiveStorageForPaperCases)
{
    // For the paper's unit mapping vectors every cell is used.
    Polyhedron isg = Polyhedron::box(IVec{0, 0}, IVec{9, 9});
    for (const IVec &ov : {IVec{1, 1}, IVec{2, 0}, IVec{1, -1}}) {
        StorageMapping sm = StorageMapping::create(ov, isg);
        std::set<int64_t> used;
        for (const auto &q : boxPoints(0, 0, 9, 9))
            used.insert(sm(q));
        EXPECT_EQ(static_cast<int64_t>(used.size()), sm.cellCount())
            << ov.str();
        EXPECT_EQ(*used.begin(), 0) << ov.str();
        EXPECT_EQ(*used.rbegin(), sm.cellCount() - 1) << ov.str();
    }
}

TEST(StorageMapping, CellCountMatchesStorageCount)
{
    // The search's objective and the mapping read one projection basis
    // and one row-range rule, so with the interleaved layout and no
    // padding the cells the search ranks are the cells allocated.
    struct Case
    {
        Polyhedron isg;
        std::vector<IVec> ovs;
    };
    const Case cases[] = {
        {Polyhedron::box(IVec{0}, IVec{20}),
         {IVec{1}, IVec{3}, IVec{-4}}},
        {Polyhedron::box(IVec{0, 0}, IVec{11, 7}),
         {IVec{1, 1}, IVec{2, 0}, IVec{2, 1}, IVec{2, 2}, IVec{3, -2},
          IVec{4, 6}, IVec{0, -3}, IVec{-6, 9}}},
        // Figure 3's hull: the winner (3,1), the shorter (3,0) and
        // non-prime multiples of both.
        {Polyhedron::fromVertices2D(
             {IVec{1, 1}, IVec{1, 6}, IVec{10, 4}, IVec{10, 9}}),
         {IVec{3, 1}, IVec{3, 0}, IVec{6, 2}, IVec{6, 0}, IVec{1, 1},
          IVec{2, -4}}},
        // The boxes and OVs StorageCount.PinnedObjectiveIn3DAnd4D pins.
        {Polyhedron::box(IVec{-3, 0, -2}, IVec{4, 5, 6}),
         {IVec{2, -4, 6}, IVec{3, 0, -6}, IVec{1, -2, 3}, IVec{4, 6, -2},
          IVec{0, 3, -6}, IVec{5, -3, 2}, IVec{1, 1, -1}, IVec{0, 0, 2}}},
        {Polyhedron::box(IVec{-1, 0, -2, 1}, IVec{3, 4, 2, 5}),
         {IVec{2, -4, 6, 8}, IVec{1, -2, 3, -5}, IVec{3, 0, -3, 6},
          IVec{0, 2, -2, 4}, IVec{1, 1, 1, 1}, IVec{-2, 3, 0, 1}}},
    };
    for (const Case &c : cases) {
        for (const IVec &ov : c.ovs) {
            StorageMapping sm = StorageMapping::create(ov, c.isg);
            EXPECT_EQ(sm.cellCount(), storageCellCount(ov, c.isg))
                << ov.str();
        }
    }
}

TEST(StorageMapping, ThreeDimensionalMapping)
{
    Polyhedron isg = Polyhedron::box(IVec{0, 0, 0}, IVec{6, 5, 4});
    for (const IVec &ov : {IVec{2, 0, 0}, IVec{1, 1, 0}, IVec{1, 1, 1},
                           IVec{2, 2, 0}}) {
        StorageMapping sm = StorageMapping::create(ov, isg);
        EXPECT_EQ(sm.cellCount(), storageCellCount(ov, isg)) << ov.str();
        for (int64_t t = 0; t <= 3; ++t) {
            for (int64_t x = 0; x <= 3; ++x) {
                for (int64_t y = 0; y <= 3; ++y) {
                    IVec q{t, x, y};
                    EXPECT_EQ(sm(q), sm(q + ov))
                        << ov.str() << " q=" << q.str();
                    EXPECT_GE(sm(q), 0);
                    EXPECT_LT(sm(q), sm.cellCount());
                }
            }
        }
    }
}

TEST(StorageMapping, OneDimensionalMapping)
{
    // ov = (3) over a 1-D loop: 3 rotating cells.
    Polyhedron isg = Polyhedron::box(IVec{0}, IVec{20});
    StorageMapping sm = StorageMapping::create(IVec{3}, isg);
    EXPECT_EQ(sm.cellCount(), 3);
    for (int64_t i = 0; i <= 20; ++i) {
        EXPECT_EQ(sm(IVec{i}), i % 3);
    }
}

TEST(StorageMapping, RejectsBadInput)
{
    Polyhedron isg = Polyhedron::box(IVec{0, 0}, IVec{5, 5});
    EXPECT_THROW(StorageMapping::create(IVec{0, 0}, isg), UovUserError);
    EXPECT_THROW(StorageMapping::create(IVec{1, 1, 1}, isg),
                 UovUserError);
}

TEST(StorageMapping, StrPrintsAShiftPastInt64Exactly)
{
    // tests/data/far_shift.nest: rows of (-1,1) range over
    // [-2^62 - 3, -2^62 + 3], so the shift -lo * g is 2^63 + 6 while
    // every cell index stays below 14.
    int64_t x0 = int64_t{1} << 62;
    Polyhedron isg = Polyhedron::box(IVec{x0, 0}, IVec{x0 + 3, 3});
    StorageMapping sm = StorageMapping::create(IVec{2, 2}, isg);
    EXPECT_EQ(sm.str(), "SM(q) = (-2, 2).q + ((0, 1).q mod 2) + "
                        "9223372036854775814   [14 cells, interleaved]");
    EXPECT_EQ(sm(IVec{x0 + 3, 0}), 0);
    EXPECT_EQ(sm(IVec{x0, 3}), 13);
}

TEST(StorageMapping, StrMentionsLayoutAndCells)
{
    Polyhedron isg = Polyhedron::box(IVec{0, 0}, IVec{9, 7});
    StorageMapping sm = StorageMapping::create(IVec{2, 0}, isg);
    std::string s = sm.str();
    EXPECT_NE(s.find("interleaved"), std::string::npos);
    EXPECT_NE(s.find("16 cells"), std::string::npos);
    EXPECT_NE(s.find("mod 2"), std::string::npos);
}

} // namespace
} // namespace uov
