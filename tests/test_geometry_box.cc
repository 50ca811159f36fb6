/**
 * @file
 * Unit tests for the integer box module (geometry/box.h): the
 * lexicographic box scan, the ball scan and its size limit, inBox,
 * the checked boxVolume and the row-major BoxLayout.  Expected
 * sequences are hand-listed or come from a brute-force loop written
 * here, independent of scanBox.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "geometry/box.h"
#include "support/error.h"
#include "support/rng.h"

namespace uov {
namespace {

std::vector<IVec>
boxPoints(const IVec &lo, const IVec &hi)
{
    std::vector<IVec> out;
    scanBox(lo, hi, [&](const IVec &p) { out.push_back(p); });
    return out;
}

TEST(Box, ScanOrder1D)
{
    EXPECT_EQ(boxPoints(IVec{-2}, IVec{1}),
              (std::vector<IVec>{IVec{-2}, IVec{-1}, IVec{0}, IVec{1}}));
}

TEST(Box, ScanOrder2DVariesLastCoordinateFastest)
{
    EXPECT_EQ(boxPoints(IVec{-1, -3}, IVec{0, -1}),
              (std::vector<IVec>{IVec{-1, -3}, IVec{-1, -2},
                                 IVec{-1, -1}, IVec{0, -3},
                                 IVec{0, -2}, IVec{0, -1}}));
}

TEST(Box, ScanOrder3D)
{
    EXPECT_EQ(boxPoints(IVec{-1, 4, -2}, IVec{0, 5, -1}),
              (std::vector<IVec>{IVec{-1, 4, -2}, IVec{-1, 4, -1},
                                 IVec{-1, 5, -2}, IVec{-1, 5, -1},
                                 IVec{0, 4, -2}, IVec{0, 4, -1},
                                 IVec{0, 5, -2}, IVec{0, 5, -1}}));
}

TEST(Box, OnePointBox)
{
    EXPECT_EQ(boxPoints(IVec{3, -4, 0}, IVec{3, -4, 0}),
              (std::vector<IVec>{IVec{3, -4, 0}}));
}

TEST(Box, EmptyBoxVisitsNothing)
{
    for (const auto &[lo, hi] : {std::pair{IVec{1, 0}, IVec{0, 5}},
                                 std::pair{IVec{0, 2}, IVec{5, 1}},
                                 std::pair{IVec{0, 0, 7}, IVec{3, 3, -7}}}) {
        int visits = 0;
        EXPECT_TRUE(scanBox(lo, hi, [&](const IVec &) { ++visits; }));
        EXPECT_EQ(visits, 0) << lo << " " << hi;
    }
}

TEST(Box, VisitorStopsTheScanEarly)
{
    std::vector<IVec> seen;
    bool finished = scanBox(IVec{0, 0}, IVec{2, 2}, [&](const IVec &p) {
        seen.push_back(p);
        return seen.size() < 4;
    });
    EXPECT_FALSE(finished);
    EXPECT_EQ(seen, (std::vector<IVec>{IVec{0, 0}, IVec{0, 1}, IVec{0, 2},
                                       IVec{1, 0}}));

    int visits = 0;
    EXPECT_TRUE(scanBox(IVec{0, 0}, IVec{2, 2}, [&](const IVec &) {
        ++visits;
        return true;
    }));
    EXPECT_EQ(visits, 9);
}

/** Nonzero points of [-7, 7]^d with |w|^2 <= radius_sq, lexicographic
 *  (a larger cube than the ball scan walks, filtered by hand). */
std::vector<IVec>
bruteForceBall(size_t d, int64_t radius_sq)
{
    constexpr int64_t kHalf = 7;
    std::vector<IVec> out;
    std::vector<int64_t> w(d, -kHalf);
    for (;;) {
        int64_t sq = 0;
        bool zero = true;
        for (int64_t x : w) {
            sq += x * x;
            zero = zero && x == 0;
        }
        if (!zero && sq <= radius_sq)
            out.emplace_back(w);
        size_t c = d;
        while (c > 0 && w[c - 1] == kHalf)
            w[--c] = -kHalf;
        if (c == 0)
            return out;
        ++w[c - 1];
    }
}

TEST(Box, BallMatchesBruteForceOnAndAroundSquares)
{
    for (size_t d : {1, 2, 3}) {
        for (int64_t radius_sq :
             {0, 1, 2, 3, 4, 5, 8, 9, 10, 15, 16, 17, 24, 25, 26}) {
            std::vector<IVec> got;
            EXPECT_TRUE(scanBall(d, radius_sq,
                                 [&](const IVec &w) { got.push_back(w); }));
            EXPECT_EQ(got, bruteForceBall(d, radius_sq))
                << "d=" << d << " r^2=" << radius_sq;
        }
    }
    int visits = 0;
    scanBall(3, 0, [&](const IVec &) { ++visits; });
    EXPECT_EQ(visits, 0);
}

TEST(Box, BallScanStopsEarly)
{
    std::vector<IVec> seen;
    EXPECT_FALSE(scanBall(2, 1, [&](const IVec &w) {
        seen.push_back(w);
        return false;
    }));
    EXPECT_EQ(seen, (std::vector<IVec>{IVec{-1, 0}}));
}

TEST(Box, BallScanLimit)
{
    auto stop = [](const IVec &) { return false; };
    // d = 2: r^2 = 1579^2 walks a 3161^2 = 9991921-point cube; one
    // more unit of radius walks 3163^2 = 10004569 points.
    EXPECT_NO_THROW(scanBall(2, 1579 * 1579, stop));
    try {
        scanBall(2, 1580 * 1580, stop);
        FAIL() << "a 3163^2-point cube should be refused";
    } catch (const UovUserError &e) {
        EXPECT_STREQ(e.what(), "ball scan over the cube [-1581, 1581]^2 "
                               "exceeds limit 10000000 points");
    }
    // The 243^4 cube of four axis dependences at distance 60.
    EXPECT_THROW(scanBall(4, 4 * 60 * 60, stop), UovUserError);
}

TEST(Box, BallScanLimitNeverOverflows)
{
    auto stop = [](const IVec &) { return false; };
    // (2r + 1)^d past int64: r = 3037000500 with d >= 2, or a small r
    // in many dimensions (3^64 > 2^63).  Each is one refusal, never an
    // overflow.
    for (size_t d : {1, 2, 3, 8})
        EXPECT_THROW(scanBall(d, INT64_MAX, stop), UovUserError)
            << "d=" << d;
    EXPECT_THROW(scanBall(64, 0, stop), UovUserError);
    EXPECT_THROW(scanBall(64, 1, stop), UovUserError);
}

TEST(Box, InBox)
{
    IVec lo{-2, 0}, hi{3, 0};
    EXPECT_TRUE(inBox(IVec{-2, 0}, lo, hi));
    EXPECT_TRUE(inBox(IVec{3, 0}, lo, hi));
    EXPECT_TRUE(inBox(IVec{1, 0}, lo, hi));
    EXPECT_FALSE(inBox(IVec{-3, 0}, lo, hi));
    EXPECT_FALSE(inBox(IVec{4, 0}, lo, hi));
    EXPECT_FALSE(inBox(IVec{0, -1}, lo, hi));
    EXPECT_FALSE(inBox(IVec{0, 1}, lo, hi));
    EXPECT_FALSE(inBox(IVec{INT64_MIN, 0}, lo, hi));
    EXPECT_FALSE(inBox(IVec{0, 0}, IVec{1, 0}, IVec{0, 0}));
}

TEST(Box, BoxVolume)
{
    EXPECT_EQ(boxVolume(IVec{1, 0}, IVec{4, 9}), 40);
    EXPECT_EQ(boxVolume(IVec{-3, -3, -3}, IVec{-3, -3, -3}), 1);
    EXPECT_EQ(boxVolume(IVec{-5}, IVec{5}), 11);
    EXPECT_EQ(boxVolume(IVec{0, 5}, IVec{9, 4}), 0);
    // An empty axis makes the box empty however wide the others are.
    EXPECT_EQ(boxVolume(IVec{INT64_MIN, 1}, IVec{INT64_MAX, 0}), 0);
    // The largest counts that still fit.
    int64_t half = int64_t{1} << 31;
    EXPECT_EQ(boxVolume(IVec{0, 0}, IVec{half - 1, half - 1}),
              int64_t{1} << 62);
    EXPECT_EQ(boxVolume(IVec{0}, IVec{INT64_MAX - 1}), INT64_MAX);
}

TEST(Box, BoxVolumeOverflowThrows)
{
    int64_t big = int64_t{1} << 32;
    EXPECT_THROW(boxVolume(IVec{0, 0}, IVec{big, big}), UovOverflowError);
    EXPECT_THROW(boxVolume(IVec{0, 0}, IVec{big - 1, big - 1}),
                 UovOverflowError);
    // A single extent past int64.
    EXPECT_THROW(boxVolume(IVec{INT64_MIN}, IVec{INT64_MAX}),
                 UovOverflowError);
    EXPECT_THROW(boxVolume(IVec{0}, IVec{INT64_MAX}), UovOverflowError);
}

TEST(Box, LayoutIndexIsScanOrder)
{
    // Over seeded boxes of 1 to 4 dimensions: the k-th point scanBox
    // visits has index k, the affine checkedIndex agrees inside the
    // box, and the cell count is the box volume.
    SplitMix64 rng(20261018);
    for (int trial = 0; trial < 200; ++trial) {
        size_t d = 1 + static_cast<size_t>(rng.nextBelow(4));
        IVec lo(d), hi(d);
        for (size_t c = 0; c < d; ++c) {
            lo[c] = rng.nextInRange(-6, 6);
            hi[c] = lo[c] + rng.nextInRange(0, 4);
        }
        BoxLayout layout(lo, hi);
        int64_t k = 0;
        scanBox(lo, hi, [&](const IVec &p) {
            EXPECT_EQ(layout.index(p), k) << lo << " " << hi << " " << p;
            EXPECT_EQ(layout.checkedIndex([&](size_t c) { return p[c]; }),
                      k);
            ++k;
        });
        EXPECT_EQ(layout.cells(), k) << lo << " " << hi;
        EXPECT_EQ(layout.cells(), boxVolume(lo, hi)) << lo << " " << hi;
    }
}

TEST(Box, LayoutStridesAndCorners)
{
    BoxLayout layout(IVec{-1, 4, 0}, IVec{2, 5, 9});
    EXPECT_EQ(layout.dim(), 3u);
    EXPECT_EQ(layout.cells(), 4 * 2 * 10);
    EXPECT_EQ(layout.stride(0), 20);
    EXPECT_EQ(layout.stride(1), 10);
    EXPECT_EQ(layout.stride(2), 1);
    EXPECT_EQ(layout.index(IVec{-1, 4, 0}), 0);
    EXPECT_EQ(layout.index(IVec{2, 5, 9}), layout.cells() - 1);
    // Outside the box checkedIndex extends the same affine form.
    EXPECT_EQ(layout.checkedIndex([](size_t c) { return c == 0 ? -2 : 0; }),
              -20 - 40);
    EXPECT_EQ(BoxLayout().cells(), 1);
    EXPECT_EQ(BoxLayout().index(IVec()), 0);
}

TEST(Box, LayoutRejectsEmptyAndOverflowingBoxes)
{
    try {
        BoxLayout(IVec{0, 5, 3}, IVec{-1, 4, 3});
        ADD_FAILURE() << "an empty box was laid out";
    } catch (const UovUserError &e) {
        EXPECT_STREQ(e.what(), "empty box dimension 1");
    }
    EXPECT_THROW(BoxLayout(IVec{0}, IVec{1, 1}), UovUserError);

    // A cell count past int64, through the product or one extent.
    int64_t big = int64_t{1} << 32;
    EXPECT_THROW(BoxLayout(IVec{0, 0}, IVec{big - 1, big - 1}),
                 UovOverflowError);
    EXPECT_THROW(BoxLayout(IVec{INT64_MIN}, IVec{INT64_MAX}),
                 UovOverflowError);
    EXPECT_THROW(BoxLayout(IVec{0}, IVec{INT64_MAX}), UovOverflowError);
    EXPECT_EQ(BoxLayout(IVec{0}, IVec{INT64_MAX - 1}).cells(), INT64_MAX);

    // The affine index past int64 throws as well.
    BoxLayout wide(IVec{0, 0}, IVec{1, INT64_MAX / 2 - 1});
    EXPECT_THROW(wide.checkedIndex([](size_t c) { return c == 0 ? 3 : 0; }),
                 UovOverflowError);
}

} // namespace
} // namespace uov
