/**
 * @file
 * Unit tests for schedules and legality checks: complete enumeration,
 * pinned visit orders, checked scan arithmetic, algebraic vs empirical
 * legality agreement, and the canonical skew.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <string>

#include "schedule/builder.h"
#include "schedule/legality.h"
#include "support/error.h"

namespace uov {
namespace {

/** Every schedule must visit every box point exactly once. */
void
expectCompleteEnumeration(const Schedule &s, const IVec &lo,
                          const IVec &hi)
{
    std::set<std::vector<int64_t>> seen;
    uint64_t count = 0;
    s.forEach(lo, hi, [&](const IVec &q) {
        ++count;
        EXPECT_TRUE(seen.insert(q.coords()).second)
            << s.name() << " revisits " << q.str();
        for (size_t c = 0; c < q.dim(); ++c) {
            EXPECT_GE(q[c], lo[c]) << s.name();
            EXPECT_LE(q[c], hi[c]) << s.name();
        }
    });
    uint64_t expected = 1;
    for (size_t c = 0; c < lo.dim(); ++c)
        expected *= static_cast<uint64_t>(hi[c] - lo[c] + 1);
    EXPECT_EQ(count, expected) << s.name();
}

/** Count and FNV-1a-64 hash of the visited coordinates, in order. */
struct VisitDigest
{
    uint64_t count = 0;
    uint64_t hash = 14695981039346656037ull;
};

VisitDigest
digestVisits(const Schedule &s, const IVec &lo, const IVec &hi)
{
    VisitDigest d;
    s.forEach(lo, hi, [&](const IVec &q) {
        ++d.count;
        for (size_t c = 0; c < q.dim(); ++c) {
            uint64_t v = static_cast<uint64_t>(q[c]);
            for (int b = 0; b < 8; ++b) {
                d.hash ^= (v >> (8 * b)) & 0xff;
                d.hash *= 1099511628211ull;
            }
        }
    });
    return d;
}

TEST(Schedules, LexIdentityOrder)
{
    TiledSchedule s(IMatrix::identity(2));
    std::vector<IVec> order;
    s.forEach(IVec{0, 0}, IVec{1, 1},
              [&](const IVec &q) { order.push_back(q); });
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], (IVec{0, 0}));
    EXPECT_EQ(order[1], (IVec{0, 1}));
    EXPECT_EQ(order[2], (IVec{1, 0}));
    EXPECT_EQ(order[3], (IVec{1, 1}));
}

TEST(Schedules, LexInterchangeOrder)
{
    // j outer, i inner
    auto s = ScheduleBuilder(2).reorder({1, 0}).buildSchedule();
    std::vector<IVec> order;
    s->forEach(IVec{0, 0}, IVec{1, 1},
               [&](const IVec &q) { order.push_back(q); });
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], (IVec{0, 0}));
    EXPECT_EQ(order[1], (IVec{1, 0}));
    EXPECT_EQ(order[2], (IVec{0, 1}));
    EXPECT_EQ(order[3], (IVec{1, 1}));
}

TEST(Schedules, BadPermutationRejected)
{
    EXPECT_THROW(ScheduleBuilder(2).reorder({0, 0}), UovUserError);
    EXPECT_THROW(ScheduleBuilder(2).reorder({1, 2}), UovUserError);
}

TEST(Schedules, AllSchedulesEnumerateCompletely)
{
    IVec lo{0, 0}, hi{5, 7};
    expectCompleteEnumeration(TiledSchedule(IMatrix::identity(2)), lo, hi);
    expectCompleteEnumeration(
        *ScheduleBuilder(2).reorder({1, 0}).buildSchedule(), lo, hi);
    expectCompleteEnumeration(
        TiledSchedule(IMatrix({{1, 0}, {2, 1}}), {}, "skew2"), lo, hi);
    expectCompleteEnumeration(
        TiledSchedule(IMatrix::identity(2), {{3, 4}}), lo, hi);
    expectCompleteEnumeration(
        TiledSchedule(IMatrix({{1, 0}, {1, 1}}), {{2, 3}}, "skew-tile"),
        lo, hi);
    expectCompleteEnumeration(AffineSchedule({IVec{1, 1}}), lo, hi);
    expectCompleteEnumeration(AffineSchedule({IVec{2, -1}}), lo, hi);
    expectCompleteEnumeration(
        RandomTopoSchedule(stencils::simpleExample(), 42), lo, hi);
}

TEST(Schedules, ThreeDimensionalEnumeration)
{
    IVec lo{0, 0, 0}, hi{3, 2, 4};
    expectCompleteEnumeration(TiledSchedule(IMatrix::identity(3)), lo, hi);
    expectCompleteEnumeration(
        TiledSchedule(IMatrix::identity(3), {{2, 2, 2}}), lo, hi);
    expectCompleteEnumeration(
        RandomTopoSchedule(stencils::heat3D(), 7), lo, hi);
}

TEST(Schedules, NonUnimodularTransformRejected)
{
    EXPECT_THROW(TiledSchedule(IMatrix({{2, 0}, {0, 1}})), UovUserError);
    EXPECT_THROW(TiledSchedule(IMatrix({{1, 1}, {1, 1}}), {{2, 2}}),
                 UovUserError);
}

TEST(Schedules, VisitOrdersPinned)
{
    // Visit count and FNV-1a-64 hash of the visited coordinates per
    // schedule, recorded when each order had a class of its own
    // (permuted lex, transformed, one- and two-level tiled,
    // wavefront): one scan must reproduce every order point for
    // point.  Boxes have zero and negative lows and extents that are
    // not multiples of the tile sizes.
    struct Pin
    {
        const char *what;
        uint64_t count;
        uint64_t hash;
    };
    static const Pin kPins[] = {
        {"reorder(0,1) A2", 48, 0xffd557c93c6df125ull},
        {"reorder(1,0) A2", 48, 0x960530a425c70125ull},
        {"lex A2", 48, 0xffd557c93c6df125ull},
        {"reorder(0,1) B2", 96, 0xaeb9bcfef4488085ull},
        {"reorder(1,0) B2", 96, 0x5a58b7f7367dc085ull},
        {"lex B2", 96, 0xaeb9bcfef4488085ull},
        {"reorder(0,1,2) A3", 60, 0x5d2c2bf17ac61d25ull},
        {"reorder(0,2,1) A3", 60, 0xaae415624b95fd25ull},
        {"reorder(1,0,2) A3", 60, 0x3a58d5b3084fd8a5ull},
        {"reorder(1,2,0) A3", 60, 0x5d1e26a33220a525ull},
        {"reorder(2,0,1) A3", 60, 0xe2e4989e313e78a5ull},
        {"reorder(2,1,0) A3", 60, 0x971284cc6a23a525ull},
        {"lex A3", 60, 0x5d2c2bf17ac61d25ull},
        {"reorder(0,1,2) B3", 125, 0x34fa73d921bbf2d5ull},
        {"reorder(0,2,1) B3", 125, 0x0356979d21a946d5ull},
        {"reorder(1,0,2) B3", 125, 0x38ac30fde14c72d5ull},
        {"reorder(1,2,0) B3", 125, 0x9aac78a70db636d5ull},
        {"reorder(2,0,1) B3", 125, 0x06578157d1b42ad5ull},
        {"reorder(2,1,0) B3", 125, 0xe8517281320c72d5ull},
        {"lex B3", 125, 0x34fa73d921bbf2d5ull},
        {"transform [1 0; 2 1] A2", 48, 0xffd557c93c6df125ull},
        {"rect 3x4 A2", 48, 0x14b46be76dd3f125ull},
        {"rect 3x5 A2", 48, 0x1b95096769905125ull},
        {"skew [1 0; 1 1] 2x3 A2", 48, 0x613504b0b4d425e5ull},
        {"skew five 3x4 A2", 48, 0xe7f01e2205cdf125ull},
        {"builder skew_nonneg;tile(3,4) A2", 48, 0xe7f01e2205cdf125ull},
        {"builder reorder(1,0);tile(3,4) A2", 48, 0xfb8fb1b23b230125ull},
        {"transform [1 0; 2 1] B2", 96, 0xaeb9bcfef4488085ull},
        {"rect 3x4 B2", 96, 0xd73edd25dec60d85ull},
        {"rect 3x5 B2", 96, 0x2a476160a6958f45ull},
        {"skew [1 0; 1 1] 2x3 B2", 96, 0xdd97748a55dc17c5ull},
        {"skew five 3x4 B2", 96, 0x782b531857b26e45ull},
        {"builder skew_nonneg;tile(3,4) B2", 96, 0x782b531857b26e45ull},
        {"builder reorder(1,0);tile(3,4) B2", 96, 0x7f89f0fd909d3ec5ull},
        {"rect 2x2x2 A3", 60, 0xa98d15b417f1a525ull},
        {"rect 2x3x2 A3", 60, 0xd3b0c7eccc1136a5ull},
        {"skew heat 2x3x3 A3", 60, 0xd8ea42c601865485ull},
        {"builder skew_nonneg;tile(2,3,3) A3", 60, 0xd8ea42c601865485ull},
        {"rect 2x2x2 B3", 125, 0xaac065bb32020095ull},
        {"rect 2x3x2 B3", 125, 0x1e9a278ce21c0755ull},
        {"skew heat 2x3x3 B3", 125, 0x748197790db83c75ull},
        {"builder skew_nonneg;tile(2,3,3) B3", 125, 0x748197790db83c75ull},
        {"two-level 2x3/2x2 identity 0..10,0..13", 154, 0xc141d3e6baaab344ull},
        {"two-level 2x3/2x2 identity B2", 96, 0xd5ff6acc22b71ec5ull},
        {"two-level 2x4/2x3 skew five 0..8,0..8", 81, 0x8ad7fe90b8f4e165ull},
        {"two-level 2x4/2x3 skew five 0..9,0..11", 120, 0xbbe81648ea7ef325ull},
        {"two-level 2x4/2x3 skew five B2", 96, 0x33e74677cbbcce85ull},
        {"two-level 2x4/2x3 identity 0..8,0..8", 81, 0x273497b855577165ull},
        {"two-level 2x3x3/2x2x2 skew heat 0..4,0..5,0..5", 180,
         0x7bb469de76bbc565ull},
        {"two-level 2x3x3/2x2x2 skew heat B3", 125, 0x785035d68f6e1175ull},
        {"wavefront (1, 1) A2", 48, 0x11949fc6a6839225ull},
        {"wavefront (3, 1) A2", 48, 0x04f4afcd3dba8f25ull},
        {"wavefront (2, -1) A2", 48, 0xf5761dd327064de5ull},
        {"wavefront (1, 1) B2", 96, 0x3756d977445e2985ull},
        {"wavefront (3, 1) B2", 96, 0x073daf8fe9a64e05ull},
        {"wavefront (2, -1) B2", 96, 0xeb6c2e3116811bc5ull},
    };
    size_t next = 0;
    auto expectPinned = [&](const std::string &what, const Schedule &s,
                            const IVec &lo, const IVec &hi) {
        ASSERT_LT(next, std::size(kPins)) << what;
        const Pin &pin = kPins[next++];
        ASSERT_EQ(what, pin.what);
        VisitDigest d = digestVisits(s, lo, hi);
        EXPECT_EQ(d.count, pin.count) << what;
        EXPECT_EQ(d.hash, pin.hash) << what;
    };

    struct Box
    {
        const char *name;
        IVec lo, hi;
    };
    const Box a2{"A2", IVec{0, 0}, IVec{5, 7}};
    const Box b2{"B2", IVec{-3, -5}, IVec{4, 6}};
    const Box a3{"A3", IVec{0, 0, 0}, IVec{3, 2, 4}};
    const Box b3{"B3", IVec{-2, -1, -3}, IVec{2, 3, 1}};
    const IMatrix id2 = IMatrix::identity(2);
    const IMatrix id3 = IMatrix::identity(3);
    const IMatrix skew21({{1, 0}, {2, 1}});
    const IMatrix skew11({{1, 0}, {1, 1}});
    const IMatrix skew5 = skewToNonNegative(stencils::fivePoint());
    const IMatrix skewHeat = skewToNonNegative(stencils::heat3D());

    for (const Box *b : {&a2, &b2, &a3, &b3}) {
        size_t d = b->lo.dim();
        std::vector<size_t> perm(d);
        for (size_t k = 0; k < d; ++k)
            perm[k] = k;
        do {
            std::string name = "reorder(";
            for (size_t k = 0; k < d; ++k)
                name += (k ? "," : "") + std::to_string(perm[k]);
            expectPinned(name + ") " + b->name,
                         *ScheduleBuilder(d).reorder(perm).buildSchedule(),
                         b->lo, b->hi);
        } while (std::next_permutation(perm.begin(), perm.end()));
        expectPinned(std::string("lex ") + b->name,
                     TiledSchedule(IMatrix::identity(d)), b->lo, b->hi);
    }
    for (const Box *b : {&a2, &b2}) {
        std::string box = b->name;
        expectPinned("transform [1 0; 2 1] " + box, TiledSchedule(skew21),
                     b->lo, b->hi);
        expectPinned("rect 3x4 " + box, TiledSchedule(id2, {{3, 4}}),
                     b->lo, b->hi);
        expectPinned("rect 3x5 " + box, TiledSchedule(id2, {{3, 5}}),
                     b->lo, b->hi);
        expectPinned("skew [1 0; 1 1] 2x3 " + box,
                     TiledSchedule(skew11, {{2, 3}}), b->lo, b->hi);
        expectPinned("skew five 3x4 " + box,
                     TiledSchedule(skew5, {{3, 4}}), b->lo, b->hi);
        ScheduleBuilder skewed(2);
        skewed.skewToNonNegative(stencils::fivePoint()).tile({3, 4});
        expectPinned("builder skew_nonneg;tile(3,4) " + box,
                     *skewed.buildSchedule(), b->lo, b->hi);
        ScheduleBuilder swapped(2);
        swapped.reorder({1, 0}).tile({3, 4});
        expectPinned("builder reorder(1,0);tile(3,4) " + box,
                     *swapped.buildSchedule(), b->lo, b->hi);
    }
    for (const Box *b : {&a3, &b3}) {
        std::string box = b->name;
        expectPinned("rect 2x2x2 " + box, TiledSchedule(id3, {{2, 2, 2}}),
                     b->lo, b->hi);
        expectPinned("rect 2x3x2 " + box, TiledSchedule(id3, {{2, 3, 2}}),
                     b->lo, b->hi);
        expectPinned("skew heat 2x3x3 " + box,
                     TiledSchedule(skewHeat, {{2, 3, 3}}), b->lo, b->hi);
        ScheduleBuilder skewed(3);
        skewed.skewToNonNegative(stencils::heat3D()).tile({2, 3, 3});
        expectPinned("builder skew_nonneg;tile(2,3,3) " + box,
                     *skewed.buildSchedule(), b->lo, b->hi);
    }
    // Two-level tilings, named inner sizes / outer factors: the outer
    // level's sizes are inner * factor.
    expectPinned("two-level 2x3/2x2 identity 0..10,0..13",
                 TiledSchedule(id2, {{4, 6}, {2, 3}}), IVec{0, 0},
                 IVec{10, 13});
    expectPinned("two-level 2x3/2x2 identity B2",
                 TiledSchedule(id2, {{4, 6}, {2, 3}}), b2.lo, b2.hi);
    expectPinned("two-level 2x4/2x3 skew five 0..8,0..8",
                 TiledSchedule(skew5, {{4, 12}, {2, 4}}), IVec{0, 0},
                 IVec{8, 8});
    expectPinned("two-level 2x4/2x3 skew five 0..9,0..11",
                 TiledSchedule(skew5, {{4, 12}, {2, 4}}), IVec{0, 0},
                 IVec{9, 11});
    expectPinned("two-level 2x4/2x3 skew five B2",
                 TiledSchedule(skew5, {{4, 12}, {2, 4}}), b2.lo, b2.hi);
    expectPinned("two-level 2x4/2x3 identity 0..8,0..8",
                 TiledSchedule(id2, {{4, 12}, {2, 4}}), IVec{0, 0},
                 IVec{8, 8});
    expectPinned("two-level 2x3x3/2x2x2 skew heat 0..4,0..5,0..5",
                 TiledSchedule(skewHeat, {{4, 6, 6}, {2, 3, 3}}),
                 IVec{0, 0, 0}, IVec{4, 5, 5});
    expectPinned("two-level 2x3x3/2x2x2 skew heat B3",
                 TiledSchedule(skewHeat, {{4, 6, 6}, {2, 3, 3}}), b3.lo,
                 b3.hi);
    for (const Box *b : {&a2, &b2})
        for (const IVec &h : {IVec{1, 1}, IVec{3, 1}, IVec{2, -1}})
            expectPinned("wavefront " + h.str() + " " + b->name,
                         AffineSchedule({h}), b->lo, b->hi);
    EXPECT_EQ(next, std::size(kPins));
}

TEST(Schedules, ScanBoundsOverflowThrows)
{
    auto none = [](const IVec &) {};
    // Row (2^40, 1) over q0 up to 2^30: the transformed bound is 2^70.
    TiledSchedule wide(IMatrix({{int64_t(1) << 40, 1}, {1, 0}}));
    EXPECT_THROW(wide.forEach(IVec{0, 0}, IVec{int64_t(1) << 30, 0}, none),
                 UovOverflowError);
    // The last tile's corner, tile * 3 + 2, passes INT64_MAX.
    TiledSchedule tiled(IMatrix::identity(1), {{3}});
    EXPECT_THROW(tiled.forEach(IVec{INT64_MAX - 1}, IVec{INT64_MAX - 1},
                               none),
                 UovOverflowError);
}

TEST(Legality, PermutationChecks)
{
    // Simple example: interchange is legal.
    EXPECT_TRUE(permutationLegal({0, 1}, stencils::simpleExample()));
    EXPECT_TRUE(permutationLegal({1, 0}, stencils::simpleExample()));
    // 5-point stencil: interchange flips (1,-2) to (-2,1) -- illegal.
    EXPECT_TRUE(permutationLegal({0, 1}, stencils::fivePoint()));
    EXPECT_FALSE(permutationLegal({1, 0}, stencils::fivePoint()));
}

TEST(Legality, TransformChecks)
{
    IMatrix skew({{1, 0}, {2, 1}});
    EXPECT_TRUE(transformLegal(skew, stencils::fivePoint()));
    IMatrix reverse({{1, 0}, {0, -1}});
    // Reversal of j: (1,2) -> (1,-2) still lex-positive; (1,-2)->(1,2).
    EXPECT_TRUE(transformLegal(reverse, stencils::fivePoint()));
    // But reversal of time is illegal.
    IMatrix treverse({{-1, 0}, {0, 1}});
    EXPECT_FALSE(transformLegal(treverse, stencils::fivePoint()));
}

TEST(Legality, TilingNeedsSkewForFivePoint)
{
    EXPECT_FALSE(
        tilingLegal(IMatrix::identity(2), stencils::fivePoint()));
    IMatrix skew = skewToNonNegative(stencils::fivePoint());
    EXPECT_EQ(skew, IMatrix({{1, 0}, {2, 1}}));
    EXPECT_TRUE(tilingLegal(skew, stencils::fivePoint()));
}

TEST(Legality, TilingLegalForForwardOnlyStencils)
{
    EXPECT_TRUE(
        tilingLegal(IMatrix::identity(2), stencils::simpleExample()));
    EXPECT_TRUE(
        tilingLegal(IMatrix::identity(2), stencils::proteinMatching()));
}

TEST(Legality, SkewRequiresTimeAdvance)
{
    // (0,1) does not advance dimension 0.
    EXPECT_THROW(skewToNonNegative(stencils::simpleExample()),
                 UovUserError);
    IMatrix skew3 = skewToNonNegative(stencils::heat3D());
    EXPECT_TRUE(tilingLegal(skew3, stencils::heat3D()));
}

TEST(Legality, WavefrontChecks)
{
    EXPECT_TRUE(wavefrontLegal(IVec{1, 1}, stencils::simpleExample()));
    EXPECT_FALSE(wavefrontLegal(IVec{1, 1}, stencils::fivePoint()));
    EXPECT_TRUE(wavefrontLegal(IVec{3, 1}, stencils::fivePoint()));
}

TEST(Legality, EmpiricalMatchesAlgebraic)
{
    IVec lo{0, 0}, hi{6, 6};
    Stencil five = stencils::fivePoint();

    // Legal cases.
    EXPECT_TRUE(scheduleRespectsStencil(
        TiledSchedule(IMatrix::identity(2)), lo, hi, five));
    IMatrix skew = skewToNonNegative(five);
    EXPECT_TRUE(scheduleRespectsStencil(
        TiledSchedule(skew, {{3, 3}}, "skew-tile"), lo, hi, five));
    EXPECT_TRUE(scheduleRespectsStencil(AffineSchedule({IVec{3, 1}}), lo,
                                        hi, five));
    EXPECT_TRUE(scheduleRespectsStencil(RandomTopoSchedule(five, 99), lo,
                                        hi, five));

    // Illegal cases.
    EXPECT_FALSE(scheduleRespectsStencil(
        *ScheduleBuilder(2).reorder({1, 0}).buildSchedule(), lo, hi,
        five));
    EXPECT_FALSE(scheduleRespectsStencil(
        TiledSchedule(IMatrix::identity(2), {{3, 3}}), lo, hi, five));
    EXPECT_FALSE(scheduleRespectsStencil(AffineSchedule({IVec{1, 1}}), lo,
                                         hi, five));
}

TEST(Legality, RandomTopoAlwaysLegalAcrossSeeds)
{
    IVec lo{0, 0}, hi{5, 5};
    for (uint64_t seed = 0; seed < 10; ++seed) {
        EXPECT_TRUE(scheduleRespectsStencil(
            RandomTopoSchedule(stencils::simpleExample(), seed), lo, hi,
            stencils::simpleExample()))
            << seed;
    }
}

} // namespace
} // namespace uov
