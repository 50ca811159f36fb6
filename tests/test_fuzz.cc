/**
 * @file
 * Tests for the differential fuzzing subsystem (src/fuzz/): generator
 * distributions and legality, fixed-seed oracle smoke runs, harness
 * bookkeeping, and -- the critical property -- that an intentionally
 * broken oracle is caught and shrunk to a tiny paste-able repro.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/uov.h"
#include "driver/nest_parser.h"
#include "fuzz/fuzzer.h"
#include "schedule/legality.h"
#include "scoped_jit_cache.h"

namespace uov {
namespace fuzz {
namespace {

// ---------------------------------------------------------------- //
// Generators
// ---------------------------------------------------------------- //

TEST(FuzzGenerator, StencilsAreValidAndBounded)
{
    SplitMix64 rng(11);
    GenOptions opt;
    for (int i = 0; i < 200; ++i) {
        Stencil s = randomStencil(rng, opt);
        EXPECT_GE(s.dim(), opt.min_dim);
        EXPECT_LE(s.dim(), opt.max_dim);
        EXPECT_GE(s.size(), 1u);
        EXPECT_LE(s.size(), opt.max_deps);
        for (const auto &v : s.deps()) {
            EXPECT_TRUE(v.isLexPositive());
            EXPECT_GE(v[0], 0);
            for (size_t k = 0; k < v.dim(); ++k)
                EXPECT_LE(std::abs(v[k]), opt.max_coord);
        }
        // The header contract: generated stencils always admit the
        // exact positive functional.
        EXPECT_TRUE(s.positiveFunctional().has_value());
    }
}

TEST(FuzzGenerator, DeterministicFromSeed)
{
    SplitMix64 a(77), b(77);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(randomStencil(a).deps(), randomStencil(b).deps());

    FuzzCase ca = makeCase(123456, {});
    FuzzCase cb = makeCase(123456, {});
    EXPECT_EQ(ca.deps, cb.deps);
    EXPECT_EQ(ca.candidates, cb.candidates);
    EXPECT_EQ(ca.lo, cb.lo);
    EXPECT_EQ(ca.hi, cb.hi);
}

TEST(FuzzGenerator, IsgBoxesRespectSideBounds)
{
    SplitMix64 rng(3);
    GenOptions opt;
    for (int i = 0; i < 100; ++i) {
        IVec lo, hi;
        randomIsgBox(rng, 3, opt, lo, hi);
        for (size_t k = 0; k < 3; ++k) {
            EXPECT_LE(lo[k], hi[k]);
            EXPECT_GE(hi[k] - lo[k], opt.min_box_side);
            EXPECT_LE(hi[k] - lo[k], opt.max_box_side);
        }
    }
}

TEST(FuzzGenerator, LegalSchedulesRespectTheStencil)
{
    // The generator promises legality; the empirical oracle verifies
    // it, for both the adversarial and the cone-safe families.
    SplitMix64 rng(2026);
    for (int i = 0; i < 40; ++i) {
        Stencil s = randomStencilDim(rng, 2, {});
        IVec lo{0, 0}, hi{5, 5};
        auto sched = randomLegalSchedule(rng, s);
        EXPECT_TRUE(scheduleRespectsStencil(*sched, lo, hi, s))
            << sched->name() << " over " << s.str();
        auto safe = randomLegalSchedule(rng, s, /*cone_safe=*/true);
        EXPECT_TRUE(scheduleRespectsStencil(*safe, lo, hi, s))
            << safe->name() << " over " << s.str();
        // cone_safe never falls back to an in-box topological order.
        EXPECT_EQ(safe->name().find("random-topo"), std::string::npos);
    }
}

TEST(FuzzGenerator, NestsCarryExtractableStencils)
{
    SplitMix64 rng(31);
    for (int i = 0; i < 50; ++i) {
        LoopNest nest = randomNest(rng);
        FuzzCase c = caseFromNest(nest);
        EXPECT_TRUE(c.valid()) << c.str();
        EXPECT_FALSE(c.candidates.empty());
    }
}

// ---------------------------------------------------------------- //
// Oracles: fixed-seed smoke (the differential claim itself)
// ---------------------------------------------------------------- //

class OracleSmoke : public ::testing::TestWithParam<OracleKind>
{
};

TEST_P(OracleSmoke, TwentyFixedSeedsAgree)
{
    SplitMix64 seeds(0xF00D);
    for (int i = 0; i < 20; ++i) {
        uint64_t seed = seeds.next();
        FuzzCase c = makeCase(seed, {});
        OracleVerdict v = runOracle(GetParam(), c);
        EXPECT_FALSE(v.has_value())
            << oracleName(GetParam()) << " seed " << seed << ": " << *v;
    }
}

INSTANTIATE_TEST_SUITE_P(AllOracles, OracleSmoke,
                         ::testing::Values(OracleKind::Membership,
                                           OracleKind::Search,
                                           OracleKind::Mapping,
                                           OracleKind::Streaming,
                                           OracleKind::Fault),
                         [](const auto &info) {
                             return std::string(
                                 oracleName(info.param));
                         });

TEST(FuzzOracles, BruteForceConeAgreesOnKnownPoints)
{
    // Independent spot-check of the independent checker.
    Stencil s({IVec{1, -2}, IVec{1, 2}});
    EXPECT_EQ(bruteForceConeContains(s, IVec{2, 0}),
              std::optional<bool>(true)); // v1 + v2
    EXPECT_EQ(bruteForceConeContains(s, IVec{0, 0}),
              std::optional<bool>(true)); // empty combination
    EXPECT_EQ(bruteForceConeContains(s, IVec{0, 1}),
              std::optional<bool>(false));
    EXPECT_EQ(bruteForceConeContains(s, IVec{-1, 0}),
              std::optional<bool>(false)); // h . target < 0
}

// ---------------------------------------------------------------- //
// Harness
// ---------------------------------------------------------------- //

TEST(FuzzHarness, ReportCountsAndDeterminism)
{
    // The sweep runs the codegen and tune oracles, which JIT-compile.
    ScopedJitCache cache("fuzz_sweep");
    FuzzOptions opt;
    opt.seed = 7;
    opt.iters = 24;
    FuzzReport a = runFuzzer(opt);
    EXPECT_TRUE(a.ok()) << a.str();
    EXPECT_EQ(a.cases, 24u);
    EXPECT_EQ(a.corpus_cases, 0u);
    EXPECT_EQ(a.oracle_runs, 24u);

    FuzzReport b = runFuzzer(opt);
    EXPECT_EQ(b.cases, a.cases);
    EXPECT_EQ(b.failures.size(), a.failures.size());
}

TEST(FuzzHarness, CorpusDirectoryReplays)
{
    ScopedJitCache cache("fuzz_corpus");
    FuzzOptions opt;
    opt.iters = 0;
    for (const char *f :
         {"stencil5.nest", "psm.nest", "boundary_topo.nest"})
        opt.corpus_files.push_back(std::string(UOV_CORPUS_DIR) + "/" +
                                   f);
    FuzzReport r = runFuzzer(opt);
    EXPECT_TRUE(r.ok()) << r.str();
    EXPECT_EQ(r.corpus_cases, 3u);
    // Seven stencil-shaped oracles per corpus nest (membership,
    // search, mapping, service, codegen, tune, durability).
    EXPECT_EQ(r.oracle_runs, 21u);
}

TEST(FuzzHarness, MissingCorpusFileIsAFailure)
{
    FuzzOptions opt;
    opt.iters = 0;
    opt.corpus_files.push_back("/nonexistent/nope.nest");
    FuzzReport r = runFuzzer(opt);
    ASSERT_EQ(r.failures.size(), 1u);
    EXPECT_NE(r.failures[0].detail.find("cannot open"),
              std::string::npos);
}

TEST(FuzzHarness, OracleExceptionBecomesVerdict)
{
    // A case the oracles cannot even construct a Stencil from must
    // surface as a verdict, not an escaped exception.
    FuzzCase c;
    c.seed = 1;
    c.deps = {IVec{-1, 0}}; // not lex-positive: Stencil() throws
    c.candidates = {IVec{1, 0}};
    c.lo = IVec{0, 0};
    c.hi = IVec{3, 3};
    OracleVerdict v = runOracle(OracleKind::Membership, c);
    ASSERT_TRUE(v.has_value());
    EXPECT_NE(v->find("oracle threw"), std::string::npos);
}

// ---------------------------------------------------------------- //
// Shrinker
// ---------------------------------------------------------------- //

TEST(FuzzShrinker, MinimizesToThePredicateCore)
{
    // Failure iff some dependence has a coordinate >= 2: the shrunk
    // case must be exactly one dependence carrying the witness.
    FuzzCase c = makeCase(0xABCDE, {});
    c.deps.push_back(IVec(std::vector<int64_t>(c.deps[0].dim(), 0)));
    c.deps.back()[0] = 3;

    auto fails = [](const FuzzCase &m) {
        for (const auto &v : m.deps)
            for (size_t k = 0; k < v.dim(); ++k)
                if (v[k] >= 2)
                    return true;
        return false;
    };
    ASSERT_TRUE(fails(c));

    ShrinkStats stats;
    FuzzCase small = shrinkCase(c, fails, &stats);
    EXPECT_TRUE(fails(small));
    EXPECT_TRUE(small.valid());
    EXPECT_EQ(small.deps.size(), 1u);
    // 1-minimal: every coordinate is 0 except one equal to 2.
    int64_t sum = 0;
    for (size_t k = 0; k < small.deps[0].dim(); ++k)
        sum += std::abs(small.deps[0][k]);
    EXPECT_EQ(sum, 2);
    EXPECT_GT(stats.attempts, 0u);
    EXPECT_GT(stats.accepted, 0u);
}

TEST(FuzzShrinker, NonFailingInputReturnsUnchanged)
{
    FuzzCase c = makeCase(42, {});
    ShrinkStats stats;
    FuzzCase same =
        shrinkCase(c, [](const FuzzCase &) { return false; }, &stats);
    EXPECT_EQ(same.deps, c.deps);
    EXPECT_EQ(stats.accepted, 0u);
}

TEST(FuzzShrinker, NestTextParsesBack)
{
    FuzzCase c = makeCase(555, {});
    LoopNest nest = parseNestString(caseToNestText(c));
    FuzzCase back = caseFromNest(nest);
    EXPECT_EQ(back.deps, c.deps);
}

// ---------------------------------------------------------------- //
// The acceptance property: a broken oracle is caught and shrunk
// ---------------------------------------------------------------- //

TEST(FuzzMutation, BrokenOracleIsCaughtAndShrunkToTinyRepro)
{
    // Mutated membership claim: "the initial UOV is universal only
    // when all of its coordinates are non-negative" -- a plausible
    // sign bug.  The real oracle proves the initial UOV universal
    // unconditionally, so the differential predicate fails exactly
    // on stencils whose dependence sum has a negative coordinate.
    auto broken_disagrees = [](const FuzzCase &m) {
        Stencil s = m.stencil();
        UovOracle oracle(s);
        IVec w = s.initialUov();
        bool real = oracle.isUov(w);
        bool mutated = real;
        for (size_t k = 0; k < w.dim(); ++k)
            if (w[k] < 0)
                mutated = false;
        return real != mutated;
    };

    // Sweep fixed seeds until the fuzzer-style generator produces a
    // case the broken oracle miscounts; the generator draws negative
    // trailing coordinates often, so this terminates fast.
    SplitMix64 seeds(0xBADBEEF);
    FuzzCase failing;
    bool found = false;
    for (int i = 0; i < 500 && !found; ++i) {
        FuzzCase c = makeCase(seeds.next(), {});
        if (broken_disagrees(c)) {
            failing = c;
            found = true;
        }
    }
    ASSERT_TRUE(found) << "no disagreeing case in 500 seeds";

    ShrinkStats stats;
    FuzzCase small = shrinkCase(failing, broken_disagrees, &stats);

    // The acceptance bar: at most 3 dependence vectors survive.
    EXPECT_TRUE(broken_disagrees(small));
    EXPECT_LE(small.deps.size(), 3u);
    EXPECT_LE(small.deps.size(), failing.deps.size());

    // And the repro is paste-able: the nest text parses back into a
    // case with the same stencil, and the block names the oracle.
    std::string repro =
        reproString(small, "membership", "mutation check");
    EXPECT_NE(repro.find("uovfuzz --replay"), std::string::npos);
    LoopNest nest = parseNestString(caseToNestText(small));
    EXPECT_EQ(caseFromNest(nest).deps, small.deps);
}

} // namespace
} // namespace fuzz
} // namespace uov
