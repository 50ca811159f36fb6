/**
 * @file
 * The service acceptance test: a 10k-request fuzz-generated replay
 * (duplicate-heavy after canonicalization) answered through the
 * concurrent service at thread counts {1, 4, hardware} must be
 * byte-identical to the single-threaded direct core/search reference,
 * with cache metrics reconciling exactly.
 *
 * UOV_REPLAY_REQUESTS overrides the request count (the sanitizer CI
 * job runs a smaller replay; the invariants are size-independent).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <unordered_set>
#include <vector>

#include "fuzz/oracles.h"
#include "service/executor.h"
#include "support/rng.h"

namespace uov {
namespace service {
namespace {

constexpr uint64_t kVisitCap = 2'000;

size_t
replayRequestCount()
{
    if (const char *env = std::getenv("UOV_REPLAY_REQUESTS")) {
        long v = std::atol(env);
        if (v > 0)
            return static_cast<size_t>(v);
    }
    return 10'000;
}

/**
 * Unique query shapes from the fuzz generators.  Each fuzz case
 * contributes three presentations across both objectives: as
 * generated, reversed (same canonical key), and padded with
 * {3*v0, 2*v0} (a different canonical class in which 2*v0 is implied
 * and gets removed) -- so the replay exercises canonicalization, not
 * just literal request dedup.
 */
std::vector<Request>
uniqueQueries(size_t target)
{
    std::vector<Request> uniq;
    SplitMix64 rng(0xD1CEu);
    while (uniq.size() < target) {
        fuzz::FuzzCase c = fuzz::makeCase(rng.next());
        if (!c.valid())
            continue;
        std::vector<IVec> rev(c.deps.rbegin(), c.deps.rend());
        std::vector<IVec> padded = c.deps;
        padded.push_back(c.deps.front() * 3);
        padded.push_back(c.deps.front() * 2);
        for (const auto &deps : {c.deps, rev, padded}) {
            for (SearchObjective obj :
                 {SearchObjective::ShortestVector,
                  SearchObjective::BoundedStorage}) {
                Request r;
                r.deps = deps;
                r.objective = obj;
                if (obj == SearchObjective::BoundedStorage) {
                    r.isg_lo = c.lo;
                    r.isg_hi = c.hi;
                }
                uniq.push_back(std::move(r));
            }
        }
    }
    return uniq;
}

TEST(ServiceReplay, ConcurrentServiceMatchesDirectByteForByte)
{
    const size_t total = replayRequestCount();
    std::vector<Request> uniq = uniqueQueries(60);

    // Direct reference, one solve per unique shape; the replay's
    // expected responses are the unique payloads re-indexed.  (The
    // direct path is deterministic, so solving each unique line once
    // is byte-equivalent to solving all of them.)
    for (size_t u = 0; u < uniq.size(); ++u)
        uniq[u].index = u + 1;
    std::vector<std::string> direct = runBatchDirect(uniq, kVisitCap);
    std::vector<std::string> payload(uniq.size());
    std::vector<std::string> kind(uniq.size());
    for (size_t u = 0; u < uniq.size(); ++u) {
        const std::string &line = direct[u];
        size_t sp1 = line.find(' ');
        size_t sp2 = line.find(' ', sp1 + 1);
        kind[u] = line.substr(0, sp1);
        payload[u] = line.substr(sp2 + 1);
    }

    // The replay: sample unique shapes with heavy repetition.
    SplitMix64 rng(0xAB5EED);
    std::vector<Request> requests;
    std::vector<std::string> expected;
    requests.reserve(total);
    expected.reserve(total);
    for (size_t i = 0; i < total; ++i) {
        size_t u = rng.nextBelow(uniq.size());
        Request r = uniq[u];
        r.index = i + 1;
        requests.push_back(std::move(r));
        expected.push_back(kind[u] + " " + std::to_string(i + 1) +
                           " " + payload[u]);
    }

    // Duplicate ratio after canonicalization: count distinct
    // canonical keys among the replayed requests (well over the
    // >= 30% duplicate floor the service is specified against).
    std::unordered_set<CanonicalKey, CanonicalKeyHash> distinct;
    for (const Request &r : requests) {
        Stencil canon = canonicalizeStencil(Stencil(r.deps));
        distinct.insert(makeKey(canon, r.objective, r.isg_lo, r.isg_hi));
    }
    double duplicate_ratio =
        1.0 - static_cast<double>(distinct.size()) /
                  static_cast<double>(requests.size());
    EXPECT_GE(duplicate_ratio, 0.30)
        << distinct.size() << " distinct canonical keys in "
        << requests.size() << " requests";

    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::vector<unsigned> thread_counts;
    for (unsigned n : {1u, 4u, hw})
        if (std::find(thread_counts.begin(), thread_counts.end(),
                      n) == thread_counts.end())
            thread_counts.push_back(n);

    for (unsigned threads : thread_counts) {
        ServiceOptions opt;
        opt.max_visits = kVisitCap;
        MetricsRegistry metrics;
        QueryService svc(opt, metrics);
        ThreadPool pool(threads);
        std::vector<std::string> got = runBatch(svc, requests, pool);
        ASSERT_EQ(got.size(), expected.size());
        for (size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(got[i], expected[i])
                << "request " << (i + 1) << " at threads=" << threads;

        // Metric reconciliation: every request performs exactly one
        // cache lookup, and is served by a hit, a coalesced flight,
        // or its own search.
        EXPECT_EQ(metrics.counter("service.requests").value(), total);
        auto st = svc.cacheStats();
        EXPECT_EQ(st.hits + st.misses, total) << "threads=" << threads;
        uint64_t coalesced =
            metrics.counter("service.singleflight.coalesced").value();
        EXPECT_EQ(st.hits + coalesced + svc.searchesExecuted(), total)
            << "threads=" << threads;
        // Single-threaded execution cannot coalesce, so the search
        // count is exactly the distinct canonical keys replayed.
        if (threads == 1) {
            EXPECT_EQ(coalesced, 0u);
            EXPECT_EQ(svc.searchesExecuted(), distinct.size());
        }
    }
}

} // namespace
} // namespace service
} // namespace uov
