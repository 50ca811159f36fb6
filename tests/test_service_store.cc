/**
 * @file
 * Unit tests for the persistent result store and its integration with
 * the query service: payload round-trips, torn-tail truncation,
 * checksum rejection, fail-point rollback, warm-restart byte-identity
 * with zero searches, store hits after cache eviction,
 * and graceful storeless degradation when the store cannot open.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "service/executor.h"
#include "service/store.h"
#include "support/failpoint.h"

namespace uov {
namespace service {
namespace {

namespace fs = std::filesystem;

/** Per-test scratch file, removed on destruction. */
struct ScratchPath
{
    std::string path;
    explicit ScratchPath(const std::string &tag)
        : path((fs::temp_directory_path() /
                ("uov-store-test-" + tag + "-" +
                 std::to_string(static_cast<long>(::getpid()))))
                   .string())
    {
        std::error_code ec;
        fs::remove(path, ec);
    }
    ~ScratchPath()
    {
        std::error_code ec;
        fs::remove(path, ec);
    }
};

/** Distinct same-shaped keys: {(1,0),(k,1)} for varying k. */
CanonicalKey
keyFor(int64_t k)
{
    return makeKey(Stencil({IVec{1, 0}, IVec{k, 1}}),
                   SearchObjective::ShortestVector, std::nullopt,
                   std::nullopt);
}

ServiceAnswer
answerFor(int64_t k)
{
    ServiceAnswer a;
    a.best_uov = IVec{k, 1};
    a.best_objective = k * k + 1;
    a.initial_objective = 4 * a.best_objective;
    a.canonical_deps = 2;
    a.cert = {{1, 0}, {0, 1}};
    return a;
}

uint64_t
fileSize(const std::string &path)
{
    return static_cast<uint64_t>(fs::file_size(path));
}

TEST(ResultStorePayload, RoundTripsEveryField)
{
    CanonicalKey key =
        makeKey(Stencil({IVec{1, -2}, IVec{1, 3}}),
                SearchObjective::BoundedStorage, IVec{0, 0},
                IVec{7, 9}, /*deadline_ms=*/5);
    ServiceAnswer answer = answerFor(3);
    answer.degraded = true;
    answer.degraded_reason = "deadline";

    std::string payload = ResultStore::encodePayload(key, answer);
    CanonicalKey key2;
    ServiceAnswer answer2;
    ASSERT_TRUE(ResultStore::decodePayload(payload, key2, answer2));
    EXPECT_TRUE(key2 == key);
    EXPECT_EQ(answer2.str(), answer.str());
    EXPECT_EQ(answer2.cert, answer.cert);
}

TEST(ResultStorePayload, RejectsTruncationAndTrailingJunk)
{
    std::string payload =
        ResultStore::encodePayload(keyFor(1), answerFor(1));
    CanonicalKey key;
    ServiceAnswer answer;
    for (size_t cut = 0; cut < payload.size(); ++cut)
        EXPECT_FALSE(ResultStore::decodePayload(
            payload.substr(0, cut), key, answer))
            << "payload truncated to " << cut << " bytes decoded";
    EXPECT_FALSE(
        ResultStore::decodePayload(payload + "x", key, answer));
}

TEST(ResultStore, AppendLookupSurvivesReopen)
{
    ScratchPath scratch("reopen");
    {
        ResultStore store(scratch.path);
        EXPECT_TRUE(store.append(keyFor(1), answerFor(1)));
        EXPECT_TRUE(store.append(keyFor(2), answerFor(2)));
        auto st = store.stats();
        EXPECT_EQ(st.appends, 2u);
        EXPECT_EQ(st.entries, 2u);
    }
    ResultStore reopened(scratch.path);
    auto st = reopened.stats();
    EXPECT_EQ(st.records_loaded, 2u);
    EXPECT_EQ(st.truncated_bytes, 0u);
    auto got = reopened.lookup(keyFor(1));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->str(), answerFor(1).str());
    EXPECT_FALSE(reopened.lookup(keyFor(9)).has_value());
}

TEST(ResultStore, LastRecordPerKeyWins)
{
    ScratchPath scratch("lastwins");
    ResultStore store(scratch.path);
    ServiceAnswer first = answerFor(1);
    ServiceAnswer second = answerFor(1);
    second.degraded = true;
    second.degraded_reason = "deadline";
    EXPECT_TRUE(store.append(keyFor(1), first));
    EXPECT_TRUE(store.append(keyFor(1), second));
    auto got = store.lookup(keyFor(1));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->str(), second.str());
    EXPECT_EQ(store.stats().entries, 1u);
}

TEST(ResultStore, TornTailIsTruncatedAndRepairIsIdempotent)
{
    ScratchPath scratch("torn");
    {
        ResultStore store(scratch.path);
        EXPECT_TRUE(store.append(keyFor(1), answerFor(1)));
        EXPECT_TRUE(store.append(keyFor(2), answerFor(2)));
    }
    uint64_t clean_size = fileSize(scratch.path);
    {
        // A crash mid-append tears the tail: garbage frame bytes.
        std::ofstream f(scratch.path,
                        std::ios::binary | std::ios::app);
        f.write("\x07\x00\x00\x00junk", 8);
    }
    {
        ResultStore store(scratch.path);
        auto st = store.stats();
        EXPECT_EQ(st.records_loaded, 2u);
        EXPECT_EQ(st.truncated_bytes, 8u);
        EXPECT_TRUE(store.lookup(keyFor(2)).has_value());
    }
    // The repair rewrote the validated prefix; a second open sees a
    // clean log of the original size.
    EXPECT_EQ(fileSize(scratch.path), clean_size);
    ResultStore again(scratch.path);
    EXPECT_EQ(again.stats().truncated_bytes, 0u);
    EXPECT_EQ(again.stats().records_loaded, 2u);
}

TEST(ResultStore, CorruptedRecordDropsItAndItsSuffix)
{
    ScratchPath scratch("corrupt");
    uint64_t first_record_end = 0;
    {
        ResultStore store(scratch.path);
        EXPECT_TRUE(store.append(keyFor(1), answerFor(1)));
        first_record_end = fileSize(scratch.path);
        EXPECT_TRUE(store.append(keyFor(2), answerFor(2)));
    }
    {
        // Flip one payload byte inside record 2.
        std::fstream f(scratch.path, std::ios::in | std::ios::out |
                                         std::ios::binary);
        f.seekp(static_cast<std::streamoff>(first_record_end + 12));
        char byte = 0;
        f.seekg(static_cast<std::streamoff>(first_record_end + 12));
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x01);
        f.seekp(static_cast<std::streamoff>(first_record_end + 12));
        f.write(&byte, 1);
    }
    ResultStore store(scratch.path);
    EXPECT_EQ(store.stats().records_loaded, 1u);
    EXPECT_GT(store.stats().truncated_bytes, 0u);
    EXPECT_TRUE(store.lookup(keyFor(1)).has_value());
    EXPECT_FALSE(store.lookup(keyFor(2)).has_value());
}

TEST(ResultStore, RefusesForeignFiles)
{
    ScratchPath scratch("foreign");
    {
        std::ofstream f(scratch.path, std::ios::binary);
        f << "NOTUOVST this is somebody else's file";
    }
    EXPECT_THROW(ResultStore store(scratch.path), UovUserError);
    // And the foreign file is left untouched.
    std::ifstream f(scratch.path, std::ios::binary);
    std::string head(8, '\0');
    f.read(head.data(), 8);
    EXPECT_EQ(head, "NOTUOVST");
}

TEST(ResultStore, FailedWriteRollsBackCompletely)
{
    for (const char *site : {"store_write", "store_fsync"}) {
        ScratchPath scratch(std::string("rollback-") + site);
        ResultStore store(scratch.path);
        EXPECT_TRUE(store.append(keyFor(1), answerFor(1)));
        uint64_t size_before = fileSize(scratch.path);
        {
            failpoint::ScopedFailPoints scope;
            failpoint::Config config;
            config.probability = 1.0;
            config.action = failpoint::Action::Throw;
            failpoint::Registry::instance().arm(site, config);
            EXPECT_FALSE(store.append(keyFor(2), answerFor(2)))
                << site;
        }
        // Rolled back: no torn bytes on disk, no index entry, and
        // the store still accepts appends afterwards.
        EXPECT_EQ(fileSize(scratch.path), size_before) << site;
        EXPECT_FALSE(store.lookup(keyFor(2)).has_value()) << site;
        EXPECT_TRUE(store.append(keyFor(3), answerFor(3))) << site;
        auto st = store.stats();
        EXPECT_EQ(st.appends, 2u) << site;
        EXPECT_EQ(st.append_errors, 1u) << site;

        ResultStore reopened(scratch.path);
        EXPECT_EQ(reopened.stats().records_loaded, 2u) << site;
        EXPECT_EQ(reopened.stats().truncated_bytes, 0u) << site;
    }
}

/** Protocol requests for a few distinct stencils. */
std::vector<Request>
someRequests()
{
    std::vector<Request> reqs;
    for (int64_t k = 1; k <= 4; ++k) {
        Request r;
        r.index = reqs.size() + 1;
        r.deps = {IVec{1, 0}, IVec{k, 1}};
        r.objective = SearchObjective::ShortestVector;
        reqs.push_back(std::move(r));
    }
    return reqs;
}

TEST(ServiceStore, WarmRestartAnswersByteIdenticalWithZeroSearches)
{
    ScratchPath scratch("svc-restart");
    std::vector<Request> reqs = someRequests();
    std::vector<std::string> first;
    {
        ServiceOptions so;
        so.store_path = scratch.path;
        MetricsRegistry metrics;
        QueryService svc(so, metrics);
        ThreadPool pool(2);
        first = runBatch(svc, reqs, pool);
        EXPECT_EQ(svc.searchesExecuted(), reqs.size());
    }
    for (size_t cache_bytes : {size_t{64} << 20, size_t{0}}) {
        ServiceOptions so;
        so.store_path = scratch.path;
        so.cache_bytes = cache_bytes;
        MetricsRegistry metrics;
        QueryService svc(so, metrics);
        ThreadPool pool(2);
        std::vector<std::string> replay = runBatch(svc, reqs, pool);
        EXPECT_EQ(replay, first) << "cache_bytes=" << cache_bytes;
        EXPECT_EQ(svc.searchesExecuted(), 0u)
            << "cache_bytes=" << cache_bytes;
        if (cache_bytes == 0)
            EXPECT_EQ(
                metrics.counter("service.store.hits").value(),
                reqs.size());
        else
            EXPECT_EQ(
                metrics.counter("service.store.preloaded").value(),
                reqs.size());
    }
}

TEST(ServiceStore, EvictedEntriesAreServedFromDiskWithoutASearch)
{
    // A cache far too small for even one entry forces every insert
    // to evict immediately; the store must still absorb each answer
    // and serve every repeat, keeping the search count flat.
    ScratchPath scratch("svc-evict");
    ServiceOptions so;
    so.store_path = scratch.path;
    so.cache_bytes = 64; // smaller than any entry: constant churn
    MetricsRegistry metrics;
    QueryService svc(so, metrics);
    ThreadPool pool(2);

    std::vector<Request> reqs = someRequests();
    std::vector<std::string> first = runBatch(svc, reqs, pool);
    uint64_t searches = svc.searchesExecuted();
    EXPECT_EQ(searches, reqs.size());

    // Every repeat is evicted-then-rehit: cache misses, store hits,
    // and -- the satellite's contract -- the searches counter does
    // not move.
    std::vector<std::string> again = runBatch(svc, reqs, pool);
    EXPECT_EQ(again, first);
    EXPECT_EQ(svc.searchesExecuted(), searches);
    EXPECT_GE(metrics.counter("service.store.hits").value(),
              reqs.size());
}

TEST(ServiceStore, UnopenableStoreDegradesToStorelessService)
{
    ScratchPath scratch("svc-noopen");
    std::vector<Request> reqs = someRequests();
    std::vector<std::string> direct = runBatchDirect(reqs);

    failpoint::ScopedFailPoints scope;
    failpoint::Config config;
    config.probability = 1.0;
    config.action = failpoint::Action::Throw;
    failpoint::Registry::instance().arm("store_open", config);

    ServiceOptions so;
    so.store_path = scratch.path;
    MetricsRegistry metrics;
    QueryService svc(so, metrics);
    EXPECT_EQ(metrics.counter("service.store.open_errors").value(),
              1u);
    ThreadPool pool(2);
    EXPECT_EQ(runBatch(svc, reqs, pool), direct);
}

} // namespace
} // namespace service
} // namespace uov
