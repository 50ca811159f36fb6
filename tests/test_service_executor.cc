/**
 * @file
 * Unit tests for the batch executor: protocol parsing (including every
 * rejection path), request-ordered responses, byte-identity with the
 * single-threaded direct reference at several thread counts, and the
 * cache collapsing duplicate queries to one search per canonical key.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "codegen/jit.h"
#include "scoped_jit_cache.h"
#include "service/executor.h"
#include "support/failpoint.h"
#include "support/rng.h"

namespace uov {
namespace service {
namespace {

constexpr uint64_t kVisitCap = 2'000;

TEST(Executor, ParsesShortestQuery)
{
    Request r = parseRequestLine(
        "query shortest deps [1,0] [0,1] [1,1]", 3);
    EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_EQ(r.index, 3u);
    EXPECT_EQ(r.objective, SearchObjective::ShortestVector);
    ASSERT_EQ(r.deps.size(), 3u);
    EXPECT_EQ(r.deps[0], (IVec{1, 0}));
    EXPECT_FALSE(r.isg_lo.has_value());
}

TEST(Executor, ParsesStorageQueryWithBounds)
{
    Request r = parseRequestLine(
        "query storage bounds 0..17 0..99 deps [1,-1] [1,0] [1,1]", 1);
    EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_EQ(r.objective, SearchObjective::BoundedStorage);
    ASSERT_TRUE(r.isg_lo.has_value());
    EXPECT_EQ(*r.isg_lo, (IVec{0, 0}));
    EXPECT_EQ(*r.isg_hi, (IVec{17, 99}));
}

TEST(Executor, RejectsMalformedLines)
{
    struct Case
    {
        const char *line;
        const char *error;
    };
    const Case cases[] = {
        {"solve shortest deps [1,0]", "expected 'query', got 'solve'"},
        {"query fastest deps [1,0]",
         "bad objective 'fastest', expected shortest|storage|native|tune"},
        {"query shortest", "missing 'deps'"},
        {"query shortest deps", "'deps' needs at least one vector"},
        {"query shortest deps (1,0)",
         "bad dependence '(1,0)', expected [o1,o2,...]"},
        {"query shortest deps [1,x]",
         "bad dependence '[1,x]', expected [o1,o2,...]"},
        {"query storage deps [1,0]", "storage query needs 'bounds'"},
        {"query shortest bounds 0..3 deps [1,0]",
         "'bounds' is only valid for storage, native, and tune "
         "queries"},
        {"query native deps [1,0]", "native query needs 'bounds'"},
        {"query storage bounds deps [1,0]",
         "'bounds' needs at least one range"},
        {"query storage bounds 0-3 deps [1,0]",
         "bad range '0-3', expected lo..hi"},
        {"query storage bounds 5..3 deps [1,0]", "empty range '5..3'"},
        {"query storage bounds 0..9 deps [1,0]",
         "bounds rank 1 does not match dependence rank 2"},
        // Numbers follow the nest grammar's rule: one whole token, no
        // '+', and no empty tuple field.
        {"query shortest deps [1,]",
         "bad dependence '[1,]', expected [o1,o2,...]"},
        {"query shortest deps [+1,0]",
         "bad dependence '[+1,0]', expected [o1,o2,...]"},
        {"query storage bounds +0..3 0..+3 deps [1,0]",
         "bad range '+0..3', expected lo..hi"},
        {"query shortest deadline_ms +5 deps [1,0]",
         "bad deadline '+5', expected -1 or a millisecond count"},
    };
    for (const Case &c : cases)
        EXPECT_EQ(parseRequestLine(c.line, 1).error, c.error)
            << "line '" << c.line << "'";
}

TEST(Executor, TuneQueryOverflowingTripCountIsAnError)
{
    // (2^32 + 1)^2 and (2^32)^2 iterations: the trip count is checked
    // before the region scan, so neither wraps past the scan limit.
    // Planning fails before any compiler is needed.
    for (const char *line :
         {"query tune bounds 0..4294967296 0..4294967296 deps [1,0]",
          "query tune bounds 0..4294967295 0..4294967295 deps [1,0]"}) {
        Request r = parseRequestLine(line, 1);
        ASSERT_TRUE(r.error.empty()) << r.error;
        EXPECT_EQ(runBatchDirect({r})[0], "error 1 integer overflow: mul")
            << line;
    }
}

TEST(Executor, DeepConeSearchIsAnErrorLine)
{
    // A cone search's depth follows its input (about w / min v in
    // 1-D): verifying this stencil's candidates runs past the depth
    // cap.  That is one error line about the input, not an internal
    // error naming a source file.
    Request r = parseRequestLine(
        "query shortest deps [7] [11] [1000000000]", 1);
    ASSERT_TRUE(r.error.empty()) << r.error;
    ServiceOptions opt;
    opt.max_visits = 1000;
    MetricsRegistry metrics;
    QueryService svc(opt, metrics);
    ThreadPool pool(1);
    std::vector<std::string> batch = runBatch(svc, {r}, pool);
    ASSERT_EQ(batch.size(), 1u);
    for (const std::string &line : {runRequest(svc, r), batch[0]}) {
        EXPECT_EQ(line.rfind("error 1 cone membership search depth of "
                             "1048576 frames exceeded (stencil {(7), "
                             "(11), (1000000000)})",
                             0),
                  0u)
            << line;
        EXPECT_EQ(line.find("internal error"), std::string::npos) << line;
        EXPECT_EQ(line.find(".cc:"), std::string::npos) << line;
    }
}

TEST(Executor, ParsesNativeQuery)
{
    Request r = parseRequestLine(
        "query native bounds 0..9 0..9 deps [1,-1] [1,0] [1,1]", 2);
    EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_TRUE(r.native);
    ASSERT_TRUE(r.isg_lo.has_value());
    EXPECT_EQ(*r.isg_hi, (IVec{9, 9}));
}

TEST(Executor, NativeQueryAnswersWithVerifiedTimings)
{
    if (!JitCompiler::hostCompilerAvailable())
        GTEST_SKIP() << "no host C compiler on PATH";
    Request r = parseRequestLine(
        "query native bounds 0..9 0..9 deps [1,-1] [1,0] [1,1]", 1);
    ASSERT_TRUE(r.error.empty()) << r.error;
    ScopedJitCache cache("native_query");
    std::string resp = runBatchDirect({r})[0];
    EXPECT_EQ(resp.rfind("answer 1 native uov=(2, 0) ", 0), 0u)
        << resp;
    EXPECT_NE(resp.find(" interp_ns="), std::string::npos) << resp;
    EXPECT_NE(resp.find(" speedup_rtile="), std::string::npos) << resp;
    EXPECT_NE(resp.find(" verified=ok"), std::string::npos) << resp;

    // The direct batch path routes native requests the same way.
    std::vector<std::string> direct = runBatchDirect({r});
    ASSERT_EQ(direct.size(), 1u);
    EXPECT_EQ(direct[0].rfind("answer 1 native ", 0), 0u) << direct[0];
}

TEST(Executor, DuplicateNativeLinesAllVerify)
{
    if (!JitCompiler::hostCompilerAvailable())
        GTEST_SKIP() << "no host C compiler on PATH";
    // Four identical native lines on four workers compile the same two
    // sources at once into one object cache and run the same loaded
    // kernels: every line must still verify.
    std::vector<Request> reqs;
    for (size_t i = 1; i <= 4; ++i)
        reqs.push_back(parseRequestLine(
            "query native bounds 0..31 0..255 deps [1,-2] [1,-1] [1,0] "
            "[1,1] [1,2]",
            i));
    for (int round = 0; round < 8; ++round) {
        ScopedJitCache cache("dup_native_" + std::to_string(round));
        ServiceOptions opt;
        MetricsRegistry metrics;
        QueryService svc(opt, metrics);
        ThreadPool pool(4);
        std::vector<std::string> got = runBatch(svc, reqs, pool);
        EXPECT_EQ(got.size(), reqs.size());
        for (const std::string &line : got)
            EXPECT_TRUE(line.ends_with(" verified=ok"))
                << "round " << round << ": " << line;
    }
}

TEST(Executor, NativeLeavesTwoObjectsAndTuneOne)
{
    if (!JitCompiler::hostCompilerAvailable())
        GTEST_SKIP() << "no host C compiler on PATH";
    // A native request compiles its lexicographic and register-tiled
    // kernels as two translation units -- even when the cost model
    // picks 1x1 register tiling (the 6-D line) -- and a tune request
    // its measured kernels as one; each leaves one object in an empty
    // JIT cache.  perfbench's native pass counts on the two.
    struct Case
    {
        const char *line;
        size_t objects;
    };
    const Case cases[] = {
        {"query native bounds 0..15 0..127 deps [1,-2] [1,-1] [1,0] "
         "[1,1] [1,2]",
         2},
        {"query native bounds 0..2 0..2 0..2 0..2 0..2 0..2 deps "
         "[1,0,0,0,0,0]",
         2},
        {"query tune bounds 0..15 0..127 deps [1,-2] [1,-1] [1,0] "
         "[1,1] [1,2]",
         1},
    };
    std::vector<std::string> lines;
    for (const Case &c : cases) {
        ScopedJitCache cache("objects");
        lines.push_back(runBatchDirect({parseRequestLine(c.line, 1)})[0]);
        EXPECT_TRUE(lines.back().ends_with(" verified=ok")) << lines.back();
        size_t objects = 0;
        std::error_code ec;
        for (const auto &entry : std::filesystem::directory_iterator(
                 JitCompiler().cacheDir(), ec))
            objects += entry.path().extension() == ".so";
        EXPECT_EQ(objects, c.objects) << c.line;
    }
    EXPECT_NE(lines[1].find(" unroll=1 jam=1 "), std::string::npos)
        << lines[1];
}

TEST(Executor, SkipsCommentsAndBlankLines)
{
    std::istringstream in(
        "# corpus of queries\n"
        "\n"
        "query shortest deps [1,0] [0,1]   # trailing comment\n"
        "   \t\n"
        "bogus line\n");
    std::vector<Request> reqs = parseRequests(in);
    ASSERT_EQ(reqs.size(), 2u);
    EXPECT_EQ(reqs[0].index, 1u);
    EXPECT_TRUE(reqs[0].error.empty());
    EXPECT_EQ(reqs[1].index, 2u);
    EXPECT_FALSE(reqs[1].error.empty());
}

// A line with no token once its comment is stripped -- "\v", or
// "\f # x" -- is skipped like a blank line and uses no request index.
TEST(Executor, SkipsLinesWithoutAToken)
{
    std::istringstream in("\v\n"
                          "\f # x\n"
                          "query shortest deps [1,0]\n"
                          " \v\f\r\n"
                          "query shortest deps [0,1]\n");
    std::vector<Request> reqs = parseRequests(in);
    ASSERT_EQ(reqs.size(), 2u);
    for (size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(reqs[i].index, i + 1);
        EXPECT_TRUE(reqs[i].error.empty()) << reqs[i].error;
    }
}

/** A random well-formed request and its line: every verb, bounds,
 *  deadline_ms, 1-D to 4-D deps, separators drawn from the five
 *  spaces a line can hold, and sometimes a trailing comment. */
std::string
randomRequestLine(SplitMix64 &rng, Request &want)
{
    const char spaces[] = {' ', '\t', '\v', '\f', '\r'};
    auto gap = [&] {
        std::string g(1 + rng.next() % 3, ' ');
        for (char &c : g)
            c = spaces[rng.next() % sizeof(spaces)];
        return g;
    };
    auto coord = [&]() -> int64_t {
        switch (rng.next() % 8) {
          case 0: return INT64_MIN;
          case 1: return INT64_MAX;
          default: return static_cast<int64_t>(rng.next() % 19) - 9;
        }
    };

    const char *verbs[] = {"shortest", "storage", "native", "tune"};
    size_t verb = rng.next() % 4;
    want.objective = verb == 1 ? SearchObjective::BoundedStorage
                               : SearchObjective::ShortestVector;
    want.native = verb == 2;
    want.tune = verb == 3;
    std::string line = (rng.next() % 2 ? gap() : "") + "query" + gap() +
                       verbs[verb];

    if (rng.next() % 2) {
        const int64_t deadlines[] = {-1, 0, 5, 250, INT64_MAX};
        want.deadline_ms = deadlines[rng.next() % 5];
        line += gap() + "deadline_ms" + gap() +
                std::to_string(want.deadline_ms);
    }

    size_t dim = 1 + rng.next() % 4;
    if (verb != 0) {
        IVec lo(dim), hi(dim);
        line += gap() + "bounds";
        for (size_t c = 0; c < dim; ++c) {
            lo[c] = coord();
            hi[c] = lo[c] == INT64_MAX
                        ? lo[c]
                        : lo[c] + static_cast<int64_t>(rng.next() % 40);
            line += gap() + std::to_string(lo[c]) + ".." +
                    std::to_string(hi[c]);
        }
        want.isg_lo = lo;
        want.isg_hi = hi;
    }

    line += gap() + "deps";
    for (size_t d = 0, n = 1 + rng.next() % 5; d < n; ++d) {
        IVec dep(dim);
        line += gap() + "[";
        for (size_t c = 0; c < dim; ++c) {
            dep[c] = coord();
            line += (c ? "," : "") + std::to_string(dep[c]);
        }
        line += "]";
        want.deps.push_back(dep);
    }
    if (rng.next() % 3 == 0)
        line += gap() + "# query shortest deps [1,0]";
    else if (rng.next() % 2)
        line += gap();
    return line;
}

// Rendering a request and reading it back gives every field back.
// '\n' ends lines, so it appears between requests, sometimes with a
// blank or comment-only line that uses no request index.  (Lines of
// '\v' or '\f' alone are SkipsLinesWithoutAToken's business.)
TEST(Executor, FuzzedRequestRoundTrip1000)
{
    SplitMix64 rng(20261018);
    std::vector<Request> want(1000);
    std::string text;
    for (size_t i = 0; i < want.size(); ++i) {
        want[i].index = i + 1;
        text += randomRequestLine(rng, want[i]) + "\n";
        if (rng.next() % 4 == 0)
            text += rng.next() % 2 ? " \t\r\n" : "\t# [1,0] query\n";
    }
    std::istringstream in(text);
    std::vector<Request> got = parseRequests(in);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        const Request &a = want[i], &b = got[i];
        ASSERT_EQ(b.error, "") << "request " << a.index;
        EXPECT_EQ(b.index, a.index);
        EXPECT_EQ(b.deps, a.deps) << "request " << a.index;
        EXPECT_EQ(b.objective, a.objective) << "request " << a.index;
        EXPECT_EQ(b.native, a.native) << "request " << a.index;
        EXPECT_EQ(b.tune, a.tune) << "request " << a.index;
        EXPECT_EQ(b.isg_lo, a.isg_lo) << "request " << a.index;
        EXPECT_EQ(b.isg_hi, a.isg_hi) << "request " << a.index;
        EXPECT_EQ(b.deadline_ms, a.deadline_ms) << "request " << a.index;
    }
}

std::vector<Request>
mixedBatch()
{
    std::istringstream in(
        "query shortest deps [1,0] [0,1] [1,1]\n"
        "query shortest deps [1,1] [0,1] [1,0]\n" // same, reordered
        "query shortest deps [1,0] [2,0] [3,0]\n" // canonicalizes
        "query shortest deps [1,0] [3,0]\n"       // ...to this one
        "query storage bounds 0..7 0..7 deps [1,-1] [1,0] [1,1]\n"
        "query storage bounds 0..7 0..7 deps [1,1] [1,0] [1,-1]\n"
        "not even close\n"
        "query storage deps [1,0]\n" // storage without bounds
        "query shortest deps [1,0] [0,1] [1,1]\n");
    return parseRequests(in);
}

TEST(Executor, BatchMatchesDirectReferenceAtEveryThreadCount)
{
    std::vector<Request> reqs = mixedBatch();
    std::vector<std::string> direct = runBatchDirect(reqs, kVisitCap);
    ASSERT_EQ(direct.size(), reqs.size());
    // Responses carry the request index in order.
    EXPECT_EQ(direct[6].rfind("error 7 ", 0), 0u) << direct[6];
    EXPECT_EQ(direct[0].rfind("answer 1 ", 0), 0u) << direct[0];

    for (unsigned threads : {1u, 4u}) {
        ServiceOptions opt;
        opt.max_visits = kVisitCap;
        MetricsRegistry metrics;
        QueryService svc(opt, metrics);
        ThreadPool pool(threads);
        std::vector<std::string> got = runBatch(svc, reqs, pool);
        EXPECT_EQ(got, direct) << "threads=" << threads;
    }
}

TEST(Executor, NoCacheStillMatchesDirect)
{
    std::vector<Request> reqs = mixedBatch();
    std::vector<std::string> direct = runBatchDirect(reqs, kVisitCap);
    ServiceOptions opt;
    opt.cache_bytes = 0;
    opt.max_visits = kVisitCap;
    MetricsRegistry metrics;
    QueryService svc(opt, metrics);
    ThreadPool pool(2);
    EXPECT_EQ(runBatch(svc, reqs, pool), direct);
}

TEST(Executor, CacheCollapsesSearchesToDistinctCanonicalKeys)
{
    std::vector<Request> reqs = mixedBatch();
    ServiceOptions opt;
    opt.max_visits = kVisitCap;
    MetricsRegistry metrics;
    QueryService svc(opt, metrics);
    // One worker: no single-flight races, so every duplicate must be
    // a cache hit and the search count equals the distinct canonical
    // keys among the 7 well-formed requests:
    //   {(1,0),(0,1),(1,1)} shortest   (requests 1, 2, 9)
    //   {(1,0),(3,0)}       shortest   (requests 3, 4 -- request 3
    //                                   canonicalizes to request 4)
    //   5-point storage over [0,7]^2   (requests 5, 6)
    ThreadPool pool(1);
    runBatch(svc, reqs, pool);
    EXPECT_EQ(svc.searchesExecuted(), 3u);
    auto st = svc.cacheStats();
    EXPECT_EQ(st.misses, 3u);
    EXPECT_EQ(st.hits, 4u);
    // Every response for the same canonical key after the first is a
    // hit: hits + misses covers exactly the well-formed requests.
    EXPECT_EQ(st.hits + st.misses, 7u);
}

TEST(Executor, ParsesPerRequestDeadline)
{
    Request r = parseRequestLine(
        "query shortest deadline_ms 250 deps [1,0] [0,1]", 1);
    EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_EQ(r.deadline_ms, 250);

    // The default applies when the line carries no deadline...
    Request d = parseRequestLine("query shortest deps [1,0]", 1, 40);
    EXPECT_TRUE(d.error.empty()) << d.error;
    EXPECT_EQ(d.deadline_ms, 40);
    // ...and an explicit deadline overrides it, including -1.
    Request o = parseRequestLine(
        "query shortest deadline_ms -1 deps [1,0]", 1, 40);
    EXPECT_TRUE(o.error.empty()) << o.error;
    EXPECT_EQ(o.deadline_ms, -1);
    // No deadline anywhere means unbounded.
    Request u = parseRequestLine("query shortest deps [1,0]", 1);
    EXPECT_EQ(u.deadline_ms, -1);

    // Storage queries take the deadline before 'bounds'.
    Request s = parseRequestLine(
        "query storage deadline_ms 0 bounds 0..3 0..3 "
        "deps [1,0] [0,1]", 2);
    EXPECT_TRUE(s.error.empty()) << s.error;
    EXPECT_EQ(s.deadline_ms, 0);
}

TEST(Executor, RejectsBadDeadlines)
{
    struct Case
    {
        const char *line;
        const char *substring;
    };
    const Case cases[] = {
        {"query shortest deadline_ms deps [1,0]", "bad deadline"},
        {"query shortest deadline_ms", "needs a millisecond count"},
        {"query shortest deadline_ms -2 deps [1,0]", "bad deadline"},
        {"query shortest deadline_ms 10x deps [1,0]", "bad deadline"},
    };
    for (const Case &c : cases) {
        Request r = parseRequestLine(c.line, 1);
        EXPECT_NE(r.error.find(c.substring), std::string::npos)
            << "line '" << c.line << "' produced error '" << r.error
            << "'";
    }
}

std::vector<Request>
deadlineBatch()
{
    // Mixed good, bad, zero-deadline, and explicit-deadline lines:
    // the determinism contract covers deadline_ms in {-1, 0}, so this
    // batch must stay byte-identical between service and direct.
    std::istringstream in(
        "query shortest deps [1,0] [0,1] [1,1]\n"
        "query shortest deadline_ms 0 deps [1,0] [0,1] [1,1]\n"
        "query storage deadline_ms 0 bounds 0..7 0..7 "
        "deps [1,-1] [1,0] [1,1]\n"
        "query shortest deadline_ms -2 deps [1,0]\n" // parse error
        "malformed\n"
        "query shortest deadline_ms -1 deps [1,0] [3,0]\n"
        "query shortest deadline_ms 0 deps [1,0] [0,1] [1,1]\n");
    return parseRequests(in);
}

TEST(Executor, ZeroDeadlineBatchStaysByteIdentical)
{
    std::vector<Request> reqs = deadlineBatch();
    std::vector<std::string> direct = runBatchDirect(reqs, kVisitCap);
    ASSERT_EQ(direct.size(), reqs.size());
    // Zero-deadline answers degrade deterministically to ov_o.
    EXPECT_NE(direct[1].find(" degraded=deadline"), std::string::npos)
        << direct[1];
    EXPECT_EQ(direct[1].rfind("answer 2 ", 0), 0u) << direct[1];
    EXPECT_EQ(direct[3].rfind("error 4 ", 0), 0u) << direct[3];
    // An unbounded duplicate of a zero-deadline query stays optimal.
    EXPECT_EQ(direct[0].find(" degraded="), std::string::npos)
        << direct[0];

    for (unsigned threads : {1u, 4u}) {
        ServiceOptions opt;
        opt.max_visits = kVisitCap;
        MetricsRegistry metrics;
        QueryService svc(opt, metrics);
        ThreadPool pool(threads);
        std::vector<std::string> got = runBatch(svc, reqs, pool);
        EXPECT_EQ(got, direct) << "threads=" << threads;
        // Classification counters partition the batch.
        uint64_t optimal = metrics.counter("service.optimal").value();
        uint64_t degraded =
            metrics.counter("service.degraded").value();
        uint64_t errors =
            metrics.counter("service.request_errors").value();
        EXPECT_EQ(optimal + degraded + errors, reqs.size());
        EXPECT_EQ(errors, 2u);
        EXPECT_EQ(degraded, 3u);
    }
}

// A deadline past the clock's range never expires: on a line or as
// the default, it answers like no deadline, not with ov_o at once.
TEST(Executor, HugeDeadlineAnswersLikeNoDeadline)
{
    const char *deps = " deps [1,-1] [1,0] [1,1]";
    std::vector<Request> reqs = {
        parseRequestLine(std::string("query shortest") + deps, 1),
        parseRequestLine(
            std::string("query shortest deadline_ms 9223372036854775807") +
                deps,
            2),
        parseRequestLine(std::string("query shortest") + deps, 3,
                         INT64_MAX)};
    std::vector<std::string> got = runBatchDirect(reqs, kVisitCap);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].rfind("answer 1 best=(2, 0) value=4 ", 0), 0u)
        << got[0];
    EXPECT_EQ(got[0].find(" degraded="), std::string::npos) << got[0];
    for (size_t i = 1; i < got.size(); ++i)
        EXPECT_EQ(got[i].substr(9), got[0].substr(9)) << got[i];
}

TEST(Executor, FailPointErrorsAreIsolatedPerRequest)
{
    std::vector<Request> reqs = mixedBatch();
    failpoint::ScopedFailPoints scope("task_start:1");
    ServiceOptions opt;
    opt.max_visits = kVisitCap;
    MetricsRegistry metrics;
    QueryService svc(opt, metrics);
    ThreadPool pool(2);
    std::vector<std::string> got = runBatch(svc, reqs, pool);
    ASSERT_EQ(got.size(), reqs.size());
    // Every request fails, none is dropped, and the batch finishes.
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].rfind("error " + std::to_string(i + 1) + " ",
                               0),
                  0u)
            << got[i];
    }
    EXPECT_EQ(metrics.counter("service.request_errors").value(),
              reqs.size());
    EXPECT_EQ(metrics.counter("service.optimal").value(), 0u);
    EXPECT_GE(metrics.counter("service.failpoint_fires").value(),
              reqs.size());
}

TEST(Executor, WatchdogFlagsOverdueRequestsOnce)
{
    MetricsRegistry metrics;
    Counter &overdue = metrics.counter("service.watchdog.overdue");
    Watchdog dog(0, &overdue); // poll_ms 0: manual flagOverdue()
    dog.start(0, 0);  // 0 ms deadline: instantly 2x overdue
    dog.start(1, -1); // unbounded: never flagged
    dog.start(2, 60'000); // far future: not flagged
    EXPECT_EQ(dog.flagOverdue(), 1u);
    // Already-flagged entries are not re-flagged.
    EXPECT_EQ(dog.flagOverdue(), 0u);
    EXPECT_EQ(overdue.value(), 1u);
    dog.finish(0);
    dog.finish(1);
    dog.finish(2);
    EXPECT_EQ(dog.flagOverdue(), 0u);
}

TEST(Executor, WatchdogCountsEachOverdueRequestExactlyOnce)
{
    MetricsRegistry metrics;
    Counter &overdue = metrics.counter("service.watchdog.overdue");
    Watchdog dog(0, &overdue); // poll_ms 0: manual flagOverdue()
    // Three instantly-overdue requests (0 ms deadline is already past
    // its 2x mark), flagged across repeated polls: the counter ends
    // at exactly three no matter how often the poll loop runs.
    dog.start(0, 0);
    dog.start(1, 0);
    EXPECT_EQ(dog.flagOverdue(), 2u);
    dog.start(2, 0);
    EXPECT_EQ(dog.flagOverdue(), 1u);
    for (int poll = 0; poll < 5; ++poll)
        EXPECT_EQ(dog.flagOverdue(), 0u);
    EXPECT_EQ(overdue.value(), 3u);
}

TEST(Executor, WatchdogNeverFlagsOnTimeRequests)
{
    MetricsRegistry metrics;
    Counter &overdue = metrics.counter("service.watchdog.overdue");
    Watchdog dog(0, &overdue);
    // Far-future deadlines and unbounded requests survive any number
    // of polls unflagged; finishing them keeps the counter at zero.
    dog.start(0, 60'000);
    dog.start(1, -1);
    for (int poll = 0; poll < 5; ++poll)
        EXPECT_EQ(dog.flagOverdue(), 0u);
    dog.finish(0);
    dog.finish(1);
    EXPECT_EQ(dog.flagOverdue(), 0u);
    EXPECT_EQ(overdue.value(), 0u);
}

TEST(Executor, WatchdogFinishedRequestCannotBecomeOverdue)
{
    MetricsRegistry metrics;
    Counter &overdue = metrics.counter("service.watchdog.overdue");
    Watchdog dog(0, &overdue);
    // A request that finishes before any poll is gone: later polls
    // cannot flag it even though its deadline has long passed.
    dog.start(0, 0);
    dog.finish(0);
    EXPECT_EQ(dog.flagOverdue(), 0u);
    EXPECT_EQ(overdue.value(), 0u);
}

TEST(Executor, WatchdogNeverFlagsHugeDeadlines)
{
    // Twice these deadlines is past INT64_MAX.
    Watchdog dog(0, nullptr);
    dog.start(0, INT64_MAX);
    dog.start(1, INT64_MAX / 2 + 1);
    EXPECT_EQ(dog.flagOverdue(), 0u);
}

TEST(Executor, WatchdogWithoutCounterStillFlags)
{
    Watchdog dog(0, nullptr);
    dog.start(0, 0);
    EXPECT_EQ(dog.flagOverdue(), 1u);
    EXPECT_EQ(dog.flagOverdue(), 0u);
}

} // namespace
} // namespace service
} // namespace uov
