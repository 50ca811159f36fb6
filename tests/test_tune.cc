/**
 * @file
 * The joint autotuner's contracts: the anytime floor (a 0 ms deadline
 * still returns a legal, certified, Degraded best-so-far), simulator
 * determinism (identical configurations replay byte-for-byte), the
 * candidate-budget axis, the observer hook, and the 'query tune'
 * service verb's deterministic response prefix.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/jit.h"
#include "core/uov.h"
#include "scoped_jit_cache.h"
#include "service/executor.h"
#include "tune/tune.h"

namespace uov {
namespace {

LoopNest
fivePointNest(int64_t t_hi = 6, int64_t x_hi = 12)
{
    return nestFromStencil(stencils::fivePoint(), IVec{0, 0},
                           IVec{t_hi, x_hi});
}

/** A winner must be legal; OV-mapped winners must carry a true UOV. */
void
expectCertified(const tune::TuneCandidate &best, const Stencil &s)
{
    EXPECT_TRUE(best.schedule.legal(s)) << best.str();
    if (best.storage == GenStorage::OvMapped) {
        EXPECT_GE(best.uov()[0], 1) << best.str();
        EXPECT_TRUE(UovOracle(s).isUov(best.uov())) << best.str();
    }
}

TEST(Tuner, UnboundedRunEvaluatesTheWholeSpace)
{
    tune::Tuner tuner(fivePointNest());
    tune::TuneResult res = tuner.run();

    EXPECT_EQ(res.status, tune::TuneStatus::Optimal);
    EXPECT_TRUE(res.degraded_reason.empty());
    EXPECT_EQ(res.evaluated, res.candidates_total);
    EXPECT_GT(res.candidates_total, 1u);
    expectCertified(res.best, tuner.stencil());

    // Candidate 0 is pinned: the default lexicographic OV-mapped
    // kernel, the baseline every speedup claim is made against.
    ASSERT_FALSE(tuner.candidates().empty());
    const tune::TuneCandidate &base = tuner.candidates()[0];
    EXPECT_EQ(base.schedule.str(), "lex");
    EXPECT_EQ(base.storage, GenStorage::OvMapped);

    // The winner is never worse than the baseline it includes.
    EXPECT_LE(res.best_score, tuner.scores()[0]);
}

TEST(Tuner, ZeroDeadlineReturnsLegalCertifiedDegradedBest)
{
    tune::TuneOptions opt;
    opt.budget.deadline = Deadline::afterMillis(0);
    tune::Tuner tuner(fivePointNest(), opt);
    tune::TuneResult res = tuner.run();

    EXPECT_EQ(res.status, tune::TuneStatus::Degraded);
    EXPECT_EQ(res.degraded_reason, "deadline");
    EXPECT_GE(res.evaluated, 1u) << "anytime floor: candidate 0 is "
                                    "always evaluated";
    EXPECT_LT(res.evaluated, res.candidates_total);
    expectCertified(res.best, tuner.stencil());
}

TEST(Tuner, ZeroDeadlineRunsAreDeterministic)
{
    // deadline_ms 0 is inside the byte-determinism contract: the
    // evaluated prefix is exactly the candidate-0 floor both times.
    auto once = [] {
        tune::TuneOptions opt;
        opt.budget.deadline = Deadline::afterMillis(0);
        tune::Tuner tuner(fivePointNest(), opt);
        tune::TuneResult res = tuner.run();
        std::ostringstream oss;
        oss << res.best.str() << "|" << res.best_score << "|"
            << res.evaluated << "/" << res.candidates_total << "|"
            << res.degraded_reason;
        return oss.str();
    };
    EXPECT_EQ(once(), once());
}

TEST(Tuner, SimulatorRunsReplayExactly)
{
    auto once = [] {
        tune::Tuner tuner(fivePointNest());
        tune::TuneResult res = tuner.run();
        std::ostringstream oss;
        oss << res.best.str() << "|" << res.best_score << "|"
            << res.evaluated;
        for (double s : tuner.scores())
            oss << "|" << s;
        return oss.str();
    };
    EXPECT_EQ(once(), once());
}

TEST(Tuner, CandidateBudgetTruncatesAndTags)
{
    tune::TuneOptions opt;
    opt.max_candidates = 1;
    tune::Tuner tuner(fivePointNest(), opt);
    tune::TuneResult res = tuner.run();

    EXPECT_EQ(res.evaluated, 1u);
    EXPECT_EQ(res.status, tune::TuneStatus::Degraded);
    EXPECT_EQ(res.degraded_reason, "candidate-budget");
    // With only candidate 0 evaluated, the baseline IS the best.
    EXPECT_EQ(res.best.schedule.str(), "lex");
    expectCertified(res.best, tuner.stencil());
}

TEST(Tuner, ObserverSeesEveryEvaluationInOrder)
{
    size_t calls = 0;
    size_t last_index = 0;
    bool monotone = true;
    tune::TuneOptions opt;
    opt.on_candidate = [&](const tune::TuneCandidate &, double,
                           size_t index, int64_t) {
        if (calls > 0 && index <= last_index)
            monotone = false;
        last_index = index;
        ++calls;
    };
    tune::Tuner tuner(fivePointNest(), opt);
    tune::TuneResult res = tuner.run();
    EXPECT_EQ(calls, res.evaluated);
    EXPECT_TRUE(monotone) << "evaluation order must follow "
                             "enumeration order";
}

TEST(Tuner, SimScoresPinned)
{
    // Every candidate's SimEvaluator score, to 17 significant digits,
    // recorded when lex, permuted, skewed and tiled visit orders each
    // had a Schedule class of their own: the unified scan must leave
    // every simulated cycle count as it was.  The 3-D nest enumerates
    // the simulator-only loop permutations too.
    struct Pin
    {
        const char *candidate;
        const char *score;
    };
    auto expectScores = [](LoopNest nest, bool lowerable_only,
                           const std::vector<Pin> &pins) {
        tune::TuneOptions opt;
        opt.lowerable_only = lowerable_only;
        tune::Tuner tuner(std::move(nest), opt);
        tuner.run();
        ASSERT_EQ(tuner.candidates().size(), pins.size());
        ASSERT_EQ(tuner.scores().size(), pins.size());
        for (size_t i = 0; i < pins.size(); ++i) {
            EXPECT_EQ(tuner.candidates()[i].str(), pins[i].candidate);
            std::ostringstream oss;
            oss << std::setprecision(17) << tuner.scores()[i];
            EXPECT_EQ(oss.str(), pins[i].score) << pins[i].candidate;
        }
    };

    // A 2-D five-point nest.
    const std::vector<Pin> five = {
        {"storage=ov uov=(2, 0) schedule=lex", "99785.360000012501"},
        {"storage=ov uov=(2, 0) schedule=unroll(2)", "75455.680000005988"},
        {"storage=ov uov=(2, 0) schedule=unroll(4)", "63259.840000002885"},
        {"storage=ov uov=(2, 0) schedule=unroll(8)", "57161.92000000141"},
        {"storage=ov uov=(2, 0) schedule=unroll(16)", "54112.96000000069"},
        {"storage=ov uov=(2, 0) schedule=skew_nonneg;tile(4,16)",
         "99785.360000012501"},
        {"storage=ov uov=(2, 0) schedule=skew_nonneg;tile(8,32)",
         "99785.360000012297"},
        {"storage=ov uov=(2, 0) schedule=skew_nonneg;tile(16,64)",
         "99785.360000012239"},
        {"storage=ov uov=(2, 0) schedule=skew_nonneg;tile(32,128)",
         "99785.360000012239"},
        {"storage=ov uov=(5, 0) schedule=lex", "107933.36000001372"},
        {"storage=ov uov=(5, 0) schedule=unroll(2)", "83603.680000006818"},
        {"storage=ov uov=(5, 0) schedule=unroll(4)", "71407.840000003402"},
        {"storage=ov uov=(5, 0) schedule=unroll(8)", "65309.920000001694"},
        {"storage=ov uov=(5, 0) schedule=unroll(16)", "62260.96000000085"},
        {"storage=ov uov=(5, 0) schedule=skew_nonneg;tile(4,16)",
         "107933.36000001313"},
        {"storage=ov uov=(5, 0) schedule=skew_nonneg;tile(8,32)",
         "107933.36000001288"},
        {"storage=ov uov=(5, 0) schedule=skew_nonneg;tile(16,64)",
         "107933.36000001279"},
        {"storage=ov uov=(5, 0) schedule=skew_nonneg;tile(32,128)",
         "107933.36000001288"},
        {"storage=expanded schedule=lex", "176687.35999998223"},
        {"storage=expanded schedule=unroll(2)", "152357.67999999793"},
        {"storage=expanded schedule=unroll(4)", "140161.84000000122"},
        {"storage=expanded schedule=unroll(8)", "134063.92000000115"},
        {"storage=expanded schedule=unroll(16)", "131014.96000000078"},
        {"storage=expanded schedule=skew_nonneg;tile(4,16)",
         "176687.35999998217"},
        {"storage=expanded schedule=skew_nonneg;tile(8,32)",
         "176687.35999998247"},
        {"storage=expanded schedule=skew_nonneg;tile(16,64)",
         "176687.35999997775"},
        {"storage=expanded schedule=skew_nonneg;tile(32,128)",
         "176687.3599999772"},
    };
    expectScores(nestFromStencil(stencils::fivePoint(), IVec{0, 0},
                                 IVec{31, 255}),
                 true, five);

    // A 2-D three-point nest with negative lows.
    const std::vector<Pin> three = {
        {"storage=ov uov=(2, 0) schedule=lex", "431666.84000014816"},
        {"storage=ov uov=(2, 0) schedule=unroll(2)", "334746.83999997639"},
        {"storage=ov uov=(2, 0) schedule=unroll(4)", "286286.83999995014"},
        {"storage=ov uov=(2, 0) schedule=unroll(8)", "262056.83999996254"},
        {"storage=ov uov=(2, 0) schedule=unroll(16)", "251395.63999997982"},
        {"storage=ov uov=(2, 0) schedule=skew_nonneg;tile(4,16)",
         "431666.84000014723"},
        {"storage=ov uov=(2, 0) schedule=skew_nonneg;tile(8,32)",
         "431666.84000014653"},
        {"storage=ov uov=(2, 0) schedule=skew_nonneg;tile(16,64)",
         "431666.84000014665"},
        {"storage=ov uov=(2, 0) schedule=skew_nonneg;tile(32,128)",
         "431666.84000014677"},
        {"storage=ov uov=(3, 0) schedule=lex", "666489.83999975643"},
        {"storage=ov uov=(3, 0) schedule=unroll(2)", "569569.84000003769"},
        {"storage=ov uov=(3, 0) schedule=unroll(4)", "521109.84000006586"},
        {"storage=ov uov=(3, 0) schedule=unroll(8)", "496879.84000003"},
        {"storage=ov uov=(3, 0) schedule=unroll(16)", "486218.64000001585"},
        {"storage=ov uov=(3, 0) schedule=skew_nonneg;tile(4,16)",
         "499189.84000023722"},
        {"storage=ov uov=(3, 0) schedule=skew_nonneg;tile(8,32)",
         "470509.84000020078"},
        {"storage=ov uov=(3, 0) schedule=skew_nonneg;tile(16,64)",
         "456169.84000018227"},
        {"storage=ov uov=(3, 0) schedule=skew_nonneg;tile(32,128)",
         "451389.84000017028"},
        {"storage=expanded schedule=lex", "897389.83999931393"},
        {"storage=expanded schedule=unroll(2)", "800469.83999973454"},
        {"storage=expanded schedule=unroll(4)", "752009.83999989077"},
        {"storage=expanded schedule=unroll(8)", "727779.839999952"},
        {"storage=expanded schedule=unroll(16)", "717118.63999997487"},
        {"storage=expanded schedule=skew_nonneg;tile(4,16)",
         "899655.83999929344"},
        {"storage=expanded schedule=skew_nonneg;tile(8,32)",
         "900701.83999928681"},
        {"storage=expanded schedule=skew_nonneg;tile(16,64)",
         "900877.83999925724"},
        {"storage=expanded schedule=skew_nonneg;tile(32,128)",
         "901191.83999925794"},
    };
    expectScores(
        nestFromStencil(Stencil({IVec{1, -1}, IVec{1, 0}, IVec{1, 1}}),
                        IVec{-7, -300}, IVec{40, 700}),
        true, three);

    // A 3-D nest whose every loop permutation is legal.
    const std::vector<Pin> cube = {
        {"storage=ov uov=(1, 0, 1) schedule=lex", "265211.4399998071"},
        {"storage=ov uov=(1, 0, 1) schedule=jam(2)", "226812.71999991732"},
        {"storage=ov uov=(1, 0, 1) schedule=jam(4)", "207613.35999996515"},
        {"storage=ov uov=(1, 0, 1) schedule=unroll(2)", "214748.71999992547"},
        {"storage=ov uov=(1, 0, 1) schedule=unroll(2);jam(2)",
         "193389.359999971"},
        {"storage=ov uov=(1, 0, 1) schedule=unroll(2);jam(4)",
         "182709.67999998797"},
        {"storage=ov uov=(1, 0, 1) schedule=unroll(4)", "189517.35999997283"},
        {"storage=ov uov=(1, 0, 1) schedule=unroll(4);jam(2)",
         "176677.67999998954"},
        {"storage=ov uov=(1, 0, 1) schedule=unroll(4);jam(4)",
         "170257.83999999566"},
        {"storage=ov uov=(1, 0, 1) schedule=unroll(8)", "176901.67999998957"},
        {"storage=ov uov=(1, 0, 1) schedule=unroll(8);jam(2)",
         "168321.83999999598"},
        {"storage=ov uov=(1, 0, 1) schedule=unroll(8);jam(4)",
         "164031.9199999983"},
        {"storage=ov uov=(1, 0, 1) schedule=unroll(16)", "170593.83999999566"},
        {"storage=ov uov=(1, 0, 1) schedule=unroll(16);jam(2)",
         "164143.91999999832"},
        {"storage=ov uov=(1, 0, 1) schedule=reorder(0,2,1)",
         "258731.43999979954"},
        {"storage=ov uov=(1, 0, 1) schedule=reorder(1,0,2)",
         "271979.43999983836"},
        {"storage=ov uov=(1, 0, 1) schedule=reorder(1,2,0)",
         "263835.43999981444"},
        {"storage=ov uov=(1, 0, 1) schedule=reorder(2,0,1)",
         "256635.43999981697"},
        {"storage=ov uov=(1, 0, 1) schedule=reorder(2,1,0)",
         "256635.43999981729"},
        {"storage=expanded schedule=lex", "977085.43999947095"},
        {"storage=expanded schedule=jam(2)", "943006.71999975108"},
        {"storage=expanded schedule=jam(4)", "925967.35999987938"},
        {"storage=expanded schedule=unroll(2)", "926622.71999975876"},
        {"storage=expanded schedule=unroll(2);jam(2)", "909583.35999988334"},
        {"storage=expanded schedule=unroll(2);jam(4)", "901063.67999994266"},
        {"storage=expanded schedule=unroll(4)", "901391.35999988532"},
        {"storage=expanded schedule=unroll(4);jam(2)", "892871.67999994371"},
        {"storage=expanded schedule=unroll(4);jam(4)", "888611.83999997214"},
        {"storage=expanded schedule=unroll(8)", "888775.67999994417"},
        {"storage=expanded schedule=unroll(8);jam(2)", "884515.83999997249"},
        {"storage=expanded schedule=unroll(8);jam(4)", "882385.9199999863"},
        {"storage=expanded schedule=unroll(16)", "882467.83999997261"},
        {"storage=expanded schedule=unroll(16);jam(2)", "880337.9199999863"},
        {"storage=expanded schedule=reorder(0,2,1)", "977085.43999947107"},
        {"storage=expanded schedule=reorder(1,0,2)", "977085.43999943021"},
        {"storage=expanded schedule=reorder(1,2,0)", "1239165.4399999054"},
        {"storage=expanded schedule=reorder(2,0,1)", "1239165.4399998691"},
        {"storage=expanded schedule=reorder(2,1,0)", "1239165.4399998707"},
    };
    expectScores(nestFromStencil(Stencil({IVec{1, 0, 0}, IVec{0, 0, 1}}),
                                 IVec{0, 0, 0}, IVec{15, 31, 63}),
                 false, cube);
}

TEST(Tuner, MeasuredSetPinned)
{
    // The kernels 'query tune' measures for the first three requests
    // of tests/data/service/tune_answers.txt: candidate 0, then the
    // four best simulator scores among the other lowerable candidates.
    struct Case
    {
        const char *line;
        std::vector<size_t> measured;
    };
    const Case cases[] = {
        {"query tune bounds 0..15 0..127 deps [1,-2] [1,-1] [1,0] [1,1] "
         "[1,2]",
         {0, 4, 3, 2, 13}},
        {"query tune bounds 0..31 0..255 deps [1,-1] [1,0] [1,1]",
         {0, 4, 3, 13, 12}},
        {"query tune bounds 0..63 0..63 deps [1,0] [0,1] [1,1]",
         {0, 11, 13, 25, 8}},
    };
    for (const Case &c : cases) {
        service::Request r = service::parseRequestLine(c.line, 1);
        ASSERT_TRUE(r.error.empty()) << r.error;
        tune::Tuner tuner(nestFromStencil(Stencil(r.deps), *r.isg_lo,
                                          *r.isg_hi, "tune"));
        tuner.run();
        EXPECT_EQ(tuner.measuredSet(), c.measured) << c.line;
    }
}

TEST(TuneService, ParsesTheTuneVerb)
{
    service::Request r = service::parseRequestLine(
        "query tune bounds 0..5 0..9 deps [1,-1] [1,0] [1,1]", 1);
    EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_TRUE(r.tune);
    EXPECT_FALSE(r.native);
    ASSERT_TRUE(r.isg_lo.has_value());
    EXPECT_EQ(r.deps.size(), 3u);
}

TEST(TuneService, TuneNeedsBounds)
{
    service::Request r = service::parseRequestLine(
        "query tune deps [1,0] [1,1]", 1);
    EXPECT_FALSE(r.error.empty());
    EXPECT_NE(r.error.find("bounds"), std::string::npos) << r.error;
}

TEST(TuneService, ZeroDeadlineResponseIsDeterministic)
{
    // With deadline_ms 0 the measurement tail is constant ("deadline"
    // or "unavailable"), so the whole response line must replay.
    service::Request r = service::parseRequestLine(
        "query tune deadline_ms 0 bounds 0..5 0..9 deps [1,-1] [1,0] "
        "[1,1]",
        1);
    ASSERT_TRUE(r.error.empty()) << r.error;
    std::string a = service::runBatchDirect({r})[0];
    std::string b = service::runBatchDirect({r})[0];
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.rfind("answer 1 tune uov=", 0), 0u) << a;
    EXPECT_NE(a.find(" degraded=deadline"), std::string::npos) << a;
    EXPECT_NE(a.find(" evaluated="), std::string::npos) << a;
    EXPECT_EQ(a.find("_ns"), std::string::npos)
        << "expired deadline must not reach the measurement tail: "
        << a;
}

TEST(TuneService, BatchDirectRoutesTuneRequests)
{
    std::istringstream in("query tune deadline_ms 0 bounds 0..5 0..9 "
                          "deps [1,-1] [1,0] [1,1]\n");
    std::vector<service::Request> reqs = service::parseRequests(in);
    ASSERT_EQ(reqs.size(), 1u);
    std::vector<std::string> out = service::runBatchDirect(reqs);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], service::runBatchDirect({reqs[0]})[0]);
}

TEST(TuneService, MeasuredResponseReportsSpeedup)
{
    if (!JitCompiler::hostCompilerAvailable())
        GTEST_SKIP() << "no host C compiler on PATH";
    service::Request r = service::parseRequestLine(
        "query tune bounds 0..5 0..9 deps [1,-1] [1,0] [1,1]", 1);
    ASSERT_TRUE(r.error.empty()) << r.error;
    ScopedJitCache cache("tune_speedup");
    std::string line = service::runBatchDirect({r})[0];
    EXPECT_EQ(line.rfind("answer 1 tune uov=", 0), 0u) << line;
    EXPECT_NE(line.find(" lex_ns="), std::string::npos) << line;
    EXPECT_NE(line.find(" best_ns="), std::string::npos) << line;
    EXPECT_NE(line.find(" speedup_vs_lex="), std::string::npos)
        << line;
    EXPECT_NE(line.find(" verified=ok"), std::string::npos) << line;
}

TEST(TuneService, OneCompilePerRequest)
{
    if (!JitCompiler::hostCompilerAvailable())
        GTEST_SKIP() << "no host C compiler on PATH";
    // The lex baseline and the top-ranked candidates compile as one
    // translation unit, and a compile leaves nothing but its object.
    service::Request r = service::parseRequestLine(
        "query tune bounds 0..15 0..127 deps [1,-2] [1,-1] [1,0] [1,1] "
        "[1,2]",
        1);
    ASSERT_TRUE(r.error.empty()) << r.error;
    ScopedJitCache cache("tune_one_compile");
    std::string line = service::runBatchDirect({r})[0];
    EXPECT_TRUE(line.ends_with(" verified=ok")) << line;
    std::vector<std::string> files;
    std::error_code ec;
    for (const auto &entry : std::filesystem::directory_iterator(
             JitCompiler().cacheDir(), ec))
        files.push_back(entry.path().filename().string());
    EXPECT_EQ(files.size(), 1u);
    for (const std::string &file : files)
        EXPECT_EQ(std::filesystem::path(file).extension(), ".so") << file;
}

TEST(TuneService, DeepNestAnswersAlikeWithAndWithoutACompiler)
{
    if (!JitCompiler::hostCompilerAvailable())
        GTEST_SKIP() << "no host C compiler on PATH";
    // The emitter takes 1- to 6-D nests, so a 7-D line ends its
    // measurement tail as a missing compiler does, and the whole line
    // is the same on every host.
    service::Request r = service::parseRequestLine(
        "query tune bounds 0..1 0..1 0..1 0..1 0..1 0..1 0..1 deps "
        "[1,0,0,0,0,0,0]",
        1);
    ASSERT_TRUE(r.error.empty()) << r.error;
    std::string with_cc = service::runBatchDirect({r})[0];
    std::string without_cc;
    {
        ScopedEnv cc("UOV_CC", "/nonexistent/cc");
        without_cc = service::runBatchDirect({r})[0];
    }
    EXPECT_EQ(with_cc, without_cc);
    EXPECT_TRUE(with_cc.ends_with(" measure=unavailable")) << with_cc;
}

TEST(NativeService, ExpiredDeadlineIsOneActionableError)
{
    // 'query native' exists to time a full JIT run; a deadline it
    // cannot meet must become a deterministic error line up front,
    // not a wasted compile.
    service::Request r = service::parseRequestLine(
        "query native deadline_ms 0 bounds 0..5 0..9 deps [1,-1] "
        "[1,0] [1,1]",
        1);
    ASSERT_TRUE(r.error.empty()) << r.error;
    std::string a = service::runBatchDirect({r})[0];
    std::string b = service::runBatchDirect({r})[0];
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.rfind("error 1 ", 0), 0u) << a;
    EXPECT_NE(a.find("deadline_ms 0 expired"), std::string::npos)
        << a;
    EXPECT_NE(a.find("raise or drop the deadline"), std::string::npos)
        << a;
}

TEST(Tuner, JitEvaluatedTuneVerifiesBitExactness)
{
    if (!JitCompiler::hostCompilerAvailable())
        GTEST_SKIP() << "no host C compiler on PATH";
    // JitEvaluator verifies every measured kernel against the
    // interpreter internally; a clean run over the lowerable space is
    // the positive half of that contract.
    ScopedJitCache cache("tune_bit_exact");
    tune::JitEvalOptions jopts;
    jopts.runs = 1;
    tune::JitEvaluator jit_eval(jopts);
    tune::TuneOptions opt;
    opt.evaluator = &jit_eval;
    opt.max_candidates = 4;
    tune::Tuner tuner(fivePointNest(), opt);
    tune::TuneResult res = tuner.run();
    EXPECT_GE(res.evaluated, 1u);
    expectCertified(res.best, tuner.stencil());
}

} // namespace
} // namespace uov
