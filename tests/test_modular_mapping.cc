/**
 * @file
 * Tests for modular storage mappings: indexing semantics, the
 * universal-safety search (including the negative result that
 * motivates occupancy vectors), schedule-specific moduli, and an
 * empirical clobber check of both.
 */

#include <gtest/gtest.h>

#include <optional>
#include <unordered_map>

#include "mapping/modular_mapping.h"
#include "schedule/schedule.h"
#include "support/error.h"

namespace uov {
namespace {

/**
 * Empirical safety of an arbitrary cell mapping under a schedule:
 * every in-box consumer of p must run before p's cell is rewritten.
 */
template <typename MapFn>
bool
mappingSafeUnder(const Schedule &sched, const IVec &lo, const IVec &hi,
                 const Stencil &stencil, MapFn cell)
{
    std::unordered_map<int64_t, IVec> owner; // cell -> live producer
    bool ok = true;
    auto in_box = [&](const IVec &p) {
        for (size_t c = 0; c < p.dim(); ++c)
            if (p[c] < lo[c] || p[c] > hi[c])
                return false;
        return true;
    };
    sched.forEach(lo, hi, [&](const IVec &q) {
        // Reads first: each read's producer must still own its cell.
        for (const auto &v : stencil.deps()) {
            IVec p = q - v;
            if (!in_box(p))
                continue;
            auto it = owner.find(cell(p));
            if (it == owner.end() || it->second != p)
                ok = false;
        }
        owner[cell(q)] = q;
    });
    return ok;
}

TEST(ModularMappingTest, IndexingAndWraparound)
{
    ModularMapping m(IVec{2, 3}, IVec{0, 0});
    EXPECT_EQ(m.cellCount(), 6);
    EXPECT_EQ(m(IVec{0, 0}), 0);
    EXPECT_EQ(m(IVec{2, 3}), 0);  // wraps both dimensions
    EXPECT_EQ(m(IVec{1, 4}), m(IVec{1, 1}));
    EXPECT_NE(m(IVec{0, 1}), m(IVec{1, 1}));
    EXPECT_THROW(ModularMapping(IVec{0, 3}, IVec{0, 0}), UovUserError);
}

TEST(ModularMappingTest, NegativeOriginNormalized)
{
    ModularMapping m(IVec{4}, IVec{-2});
    EXPECT_EQ(m(IVec{-2}), 0);
    EXPECT_EQ(m(IVec{2}), 0);
    EXPECT_EQ(m(IVec{-1}), 1);
}

TEST(ModuliSearch, SingleDependenceAllowsTinyRows)
{
    // Stencil {(1,0)}: a value is dead once the next i-iteration ran,
    // under every legal schedule -- so m = (1, full) is universally
    // safe: one row of cells.
    Stencil s({IVec{1, 0}});
    IVec lo{0, 0}, hi{9, 7};
    ModuliSearchResult r = universallySafeModuli(s, lo, hi);
    EXPECT_EQ(r.moduli, (IVec{1, 8}));
    EXPECT_EQ(r.cells, 8);
    EXPECT_FALSE(r.trivial);
}

TEST(ModuliSearch, SimpleExampleForcesTrivialModuli)
{
    // The motivating negative result: for {(1,0),(0,1),(1,1)} no
    // axis-aligned lattice difference is ever a UOV (its lex-positive
    // form always misses one dependence), so rectangular modular
    // storage cannot reuse ANY cell universally.  Occupancy vectors
    // (freely oriented lines) can.
    Stencil s = stencils::simpleExample();
    IVec lo{0, 0}, hi{7, 7};
    ModuliSearchResult r = universallySafeModuli(s, lo, hi);
    EXPECT_TRUE(r.trivial);
    EXPECT_EQ(r.cells, 64);
}

TEST(ModuliSearch, ScheduleSpecificModuliAreSmall)
{
    // Given a schedule, values die within a bounded number of
    // wavefronts, so small moduli suffice (Lefebvre/Feautrier's
    // setting).
    Stencil s = stencils::simpleExample();
    IVec lo{0, 0}, hi{7, 7};
    IVec h{2, 1};
    ModuliSearchResult spec = scheduleSpecificModuli(h, s, lo, hi);
    ModuliSearchResult univ = universallySafeModuli(s, lo, hi);
    EXPECT_LT(spec.cells, univ.cells);
    EXPECT_FALSE(spec.trivial);

    // And it is empirically safe under that schedule...
    ModularMapping m(spec.moduli, lo);
    EXPECT_TRUE(mappingSafeUnder(
        AffineSchedule({h}), lo, hi, s,
        [&](const IVec &q) { return m(q); }));
}

TEST(ModuliSearch, ScheduleSpecificModuliBreakElsewhere)
{
    // ...but some other legal schedule clobbers it, unless it is
    // trivial.
    Stencil s = stencils::simpleExample();
    IVec lo{0, 0}, hi{7, 7};
    ModuliSearchResult spec =
        scheduleSpecificModuli(IVec{2, 1}, s, lo, hi);
    ASSERT_FALSE(spec.trivial);
    ModularMapping m(spec.moduli, lo);

    bool broke_somewhere = false;
    for (const IVec &h2 : {IVec{1, 2}, IVec{1, 3}, IVec{3, 1}}) {
        if (!mappingSafeUnder(AffineSchedule({h2}), lo, hi, s,
                              [&](const IVec &q) { return m(q); }))
            broke_somewhere = true;
    }
    EXPECT_TRUE(broke_somewhere);
}

TEST(ModuliSearch, UniversalModuliSafeEverywhere)
{
    Stencil s({IVec{1, 0}});
    IVec lo{0, 0}, hi{7, 7};
    ModuliSearchResult r = universallySafeModuli(s, lo, hi);
    ModularMapping m(r.moduli, lo);
    for (const IVec &h : {IVec{2, 1}, IVec{1, 2}, IVec{5, 1}}) {
        EXPECT_TRUE(mappingSafeUnder(
            AffineSchedule({h}), lo, hi, s,
            [&](const IVec &q) { return m(q); }))
            << h.str();
    }
    for (uint64_t seed = 0; seed < 5; ++seed) {
        EXPECT_TRUE(mappingSafeUnder(
            RandomTopoSchedule(s, seed), lo, hi, s,
            [&](const IVec &q) { return m(q); }))
            << seed;
    }
}

TEST(ModuliSearch, GuardsHugeSearches)
{
    Stencil s = stencils::simpleExample();
    EXPECT_THROW(
        universallySafeModuli(s, IVec{0, 0}, IVec{4000, 4000}),
        UovUserError);
}

} // namespace
} // namespace uov
