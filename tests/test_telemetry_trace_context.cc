// Trace-context tests: id minting (unique, nonzero, int64-safe),
// scope push/pop semantics, the scope's flight digest, cross-thread
// isolation, and the logger trace-id hook.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "support/logging.h"
#include "telemetry/trace_context.h"

using namespace uov;
using namespace uov::telemetry;

TEST(TraceIds, UniqueNonzeroTopBitClear)
{
    std::set<uint64_t> seen;
    for (int i = 0; i < 10'000; ++i) {
        TraceContext ctx = newTrace();
        ASSERT_NE(ctx.id, 0u);
        ASSERT_EQ(ctx.id >> 63, 0u) << "top bit must be clear";
        ASSERT_TRUE(seen.insert(ctx.id).second) << "duplicate id";
    }
}

TEST(TraceIds, UniqueAcrossThreads)
{
    constexpr int kThreads = 8;
    constexpr int kPerThread = 2'000;
    std::vector<std::vector<uint64_t>> ids(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&ids, t] {
            for (int i = 0; i < kPerThread; ++i)
                ids[t].push_back(newTrace().id);
        });
    for (auto &t : threads)
        t.join();
    std::set<uint64_t> all;
    for (const auto &v : ids)
        for (uint64_t id : v)
            ASSERT_TRUE(all.insert(id).second) << "duplicate id";
    EXPECT_EQ(all.size(), size_t{kThreads} * kPerThread);
}

TEST(TraceScope, CurrentFollowsScopeNesting)
{
    EXPECT_FALSE(currentTrace().valid());
    EXPECT_EQ(currentTraceHex(), "");

    TraceContext outer = newTrace();
    {
        TraceScope scope(outer);
        EXPECT_EQ(currentTrace().id, outer.id);
        EXPECT_EQ(currentTraceHex(), traceIdHex(outer.id));

        TraceContext inner = newTrace();
        {
            TraceScope nested(inner);
            EXPECT_EQ(currentTrace().id, inner.id);
        }
        EXPECT_EQ(currentTrace().id, outer.id);
    }
    EXPECT_FALSE(currentTrace().valid());
}

TEST(TraceScope, AnnotationsAccumulateInScope)
{
    EXPECT_EQ(currentDigest(), nullptr);
    noteCacheHit(); // no-op outside any scope, must not crash

    TraceScope scope(newTrace());
    ASSERT_NE(currentDigest(), nullptr);
    EXPECT_FALSE(currentDigest()->cache_hit);

    noteKeyHash(0xabcd);
    noteCacheHit();
    noteStoreHit();
    noteCoalesced();
    noteSearch(123);

    EXPECT_EQ(scope.digest().key_hash, 0xabcdu);
    EXPECT_TRUE(scope.digest().cache_hit);
    EXPECT_TRUE(scope.digest().store_hit);
    EXPECT_TRUE(scope.digest().coalesced);
    EXPECT_EQ(scope.digest().nodes, 123u);
}

TEST(TraceScope, NestedScopeHasFreshAnnotations)
{
    TraceScope outer(newTrace());
    noteCacheHit();
    {
        TraceScope inner(newTrace());
        EXPECT_FALSE(currentDigest()->cache_hit);
        noteStoreHit();
    }
    EXPECT_TRUE(currentDigest()->cache_hit);
    EXPECT_FALSE(currentDigest()->store_hit);
}

TEST(TraceScope, ThreadLocalIsolation)
{
    TraceScope scope(newTrace());
    uint64_t other_id = 1; // sentinel: other thread sees no scope
    std::thread t([&other_id] { other_id = currentTrace().id; });
    t.join();
    EXPECT_EQ(other_id, 0u);
    EXPECT_TRUE(currentTrace().valid());
}

TEST(TraceIdHex, SixteenLowercaseHexDigits)
{
    EXPECT_EQ(traceIdHex(0), "0000000000000000");
    EXPECT_EQ(traceIdHex(0xabc), "0000000000000abc");
    EXPECT_EQ(traceIdHex(0x123456789abcdef0ull), "123456789abcdef0");
}

TEST(LoggerHook, LogLinesCarryTheScopeId)
{
    installLoggerTraceIds();
    std::ostringstream captured;
    Logger &logger = Logger::instance();
    std::ostream *old_sink = &std::cerr;
    logger.sink(&captured);

    TraceContext ctx = newTrace();
    {
        TraceScope scope(ctx);
        UOV_LOG_WARN("inside the scope");
    }
    UOV_LOG_WARN("outside the scope");

    logger.sink(old_sink);
    logger.setTraceIdProvider(nullptr);

    std::string out = captured.str();
    std::string token = "trace_id=" + traceIdHex(ctx.id);
    auto first = out.find("inside the scope");
    auto second = out.find("outside the scope");
    ASSERT_NE(first, std::string::npos);
    ASSERT_NE(second, std::string::npos);
    // The id is stamped on the in-scope line only.
    EXPECT_NE(out.find(token), std::string::npos);
    EXPECT_LT(out.find(token), second);
    EXPECT_EQ(out.find("trace_id=", second), std::string::npos);
}

TEST(LoggerHook, JsonModeEmitsTraceIdKey)
{
    installLoggerTraceIds();
    std::ostringstream captured;
    Logger &logger = Logger::instance();
    logger.sink(&captured);
    logger.setJsonMode(true);

    TraceContext ctx = newTrace();
    {
        TraceScope scope(ctx);
        UOV_LOG_WARN("structured");
    }

    logger.setJsonMode(false);
    logger.sink(&std::cerr);
    logger.setTraceIdProvider(nullptr);

    std::string out = captured.str();
    EXPECT_NE(out.find("\"trace_id\":\"" + traceIdHex(ctx.id) + "\""),
              std::string::npos);
    EXPECT_NE(out.find("\"msg\":\"structured\""), std::string::npos);
}
