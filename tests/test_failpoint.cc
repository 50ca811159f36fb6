/**
 * @file
 * Deadlines and the fail-point registry.
 */

#include <gtest/gtest.h>

#include <thread>

#include "support/deadline.h"
#include "support/failpoint.h"

namespace uov {
namespace {

using failpoint::Action;
using failpoint::Config;
using failpoint::FailPointError;
using failpoint::Registry;
using failpoint::ScopedFailPoints;

// ---------------------------------------------------------------- //
// Deadline
// ---------------------------------------------------------------- //

TEST(Deadline, DefaultNeverExpires)
{
    Deadline d;
    EXPECT_FALSE(d.bounded());
    EXPECT_FALSE(d.expired());
    EXPECT_EQ(d.remainingMillis(), INT64_MAX);
    EXPECT_FALSE(Deadline::never().expired());
}

TEST(Deadline, NegativeMillisMeansUnbounded)
{
    Deadline d = Deadline::afterMillis(-1);
    EXPECT_FALSE(d.bounded());
    EXPECT_FALSE(d.expired());
}

TEST(Deadline, ZeroMillisExpiresImmediately)
{
    Deadline d = Deadline::afterMillis(0);
    EXPECT_TRUE(d.bounded());
    EXPECT_TRUE(d.expired());
    EXPECT_EQ(d.remainingMillis(), 0);
}

TEST(Deadline, FutureDeadlineIsNotExpired)
{
    Deadline d = Deadline::afterMillis(60'000);
    EXPECT_TRUE(d.bounded());
    EXPECT_FALSE(d.expired());
    EXPECT_GT(d.remainingMillis(), 0);
    EXPECT_LE(d.remainingMillis(), 60'000);
}

TEST(Deadline, ExplicitClockPoint)
{
    Deadline past = Deadline::at(Deadline::Clock::now() -
                                 std::chrono::milliseconds(5));
    EXPECT_TRUE(past.expired());
    EXPECT_EQ(past.remainingMillis(), 0);
}

TEST(Deadline, HugeMillisNeverExpire)
{
    // Past the clock's range, now + ms would wrap into the past.
    for (int64_t ms : {INT64_MAX, int64_t{9'300'000'000'000}}) {
        Deadline d = Deadline::afterMillis(ms);
        EXPECT_FALSE(d.expired()) << ms;
        EXPECT_EQ(d.remainingMillis(), INT64_MAX) << ms;
    }
}

// ---------------------------------------------------------------- //
// Fail points
// ---------------------------------------------------------------- //

TEST(FailPoint, DisarmedSiteIsFree)
{
    ScopedFailPoints scope; // clears on exit
    EXPECT_NO_THROW(failpoint::fire("nowhere"));
    EXPECT_EQ(Registry::instance().fires("nowhere"), 0u);
}

TEST(FailPoint, CertainThrowFires)
{
    ScopedFailPoints scope;
    Config config;
    config.probability = 1.0;
    Registry::instance().arm("boom", config);
    EXPECT_THROW(failpoint::fire("boom"), FailPointError);
    EXPECT_THROW(failpoint::fire("boom"), FailPointError);
    EXPECT_EQ(Registry::instance().fires("boom"), 2u);
    EXPECT_EQ(Registry::instance().totalFires(), 2u);
    // Other sites stay disarmed.
    EXPECT_NO_THROW(failpoint::fire("quiet"));
}

TEST(FailPoint, ZeroProbabilityNeverFires)
{
    ScopedFailPoints scope;
    Config config;
    config.probability = 0.0;
    Registry::instance().arm("never", config);
    for (int i = 0; i < 100; ++i)
        EXPECT_NO_THROW(failpoint::fire("never"));
    EXPECT_EQ(Registry::instance().fires("never"), 0u);
}

TEST(FailPoint, SeededStreamIsDeterministic)
{
    auto run = [](uint64_t seed) {
        ScopedFailPoints scope;
        Config config;
        config.probability = 0.5;
        config.seed = seed;
        Registry::instance().arm("coin", config);
        std::string pattern;
        for (int i = 0; i < 32; ++i) {
            try {
                failpoint::fire("coin");
                pattern += '.';
            } catch (const FailPointError &) {
                pattern += 'X';
            }
        }
        return pattern;
    };
    std::string a = run(42);
    EXPECT_EQ(a, run(42));
    EXPECT_NE(a, run(43));
    // A fair-ish coin actually fired and actually missed.
    EXPECT_NE(a.find('X'), std::string::npos);
    EXPECT_NE(a.find('.'), std::string::npos);
}

TEST(FailPoint, DelayActionSleepsInsteadOfThrowing)
{
    ScopedFailPoints scope;
    Config config;
    config.probability = 1.0;
    config.action = Action::Delay;
    config.delay_ms = 1;
    Registry::instance().arm("slow", config);
    auto before = std::chrono::steady_clock::now();
    EXPECT_NO_THROW(failpoint::fire("slow"));
    auto elapsed = std::chrono::steady_clock::now() - before;
    EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(
                  elapsed)
                  .count(),
              900);
    EXPECT_EQ(Registry::instance().fires("slow"), 1u);
}

TEST(FailPoint, SpecParsing)
{
    ScopedFailPoints scope(
        "a:1,b:0.5:7:delay3,c:0:9:throw");
    auto sites = Registry::instance().armedSites();
    ASSERT_EQ(sites.size(), 3u);
    EXPECT_EQ(sites[0], "a");
    EXPECT_EQ(sites[1], "b");
    EXPECT_EQ(sites[2], "c");
    EXPECT_THROW(failpoint::fire("a"), FailPointError);
    EXPECT_NO_THROW(failpoint::fire("c"));
}

TEST(FailPoint, MalformedSpecsAreRejected)
{
    ScopedFailPoints scope;
    std::string error;
    Registry &reg = Registry::instance();
    EXPECT_FALSE(reg.armFromSpec("noprob", &error));
    EXPECT_FALSE(reg.armFromSpec("x:notanumber", &error));
    EXPECT_FALSE(reg.armFromSpec("x:2.0", &error)); // prob > 1
    EXPECT_FALSE(reg.armFromSpec("x:0.5:seedless:", &error));
    EXPECT_FALSE(reg.armFromSpec("x:0.5:1:explode", &error));
    EXPECT_FALSE(reg.armFromSpec(":0.5", &error));
    EXPECT_FALSE(error.empty());
    // Empty entries are tolerated (trailing commas).
    EXPECT_TRUE(reg.armFromSpec("ok:1,", &error));
    EXPECT_THROW(failpoint::fire("ok"), FailPointError);
}

TEST(FailPoint, ClearResetsCounts)
{
    {
        ScopedFailPoints scope("gone:1");
        EXPECT_THROW(failpoint::fire("gone"), FailPointError);
        EXPECT_EQ(Registry::instance().totalFires(), 1u);
    }
    EXPECT_EQ(Registry::instance().totalFires(), 0u);
    EXPECT_EQ(Registry::instance().fires("gone"), 0u);
    EXPECT_NO_THROW(failpoint::fire("gone"));
}

TEST(FailPoint, ConcurrentHitsStayConsistent)
{
    ScopedFailPoints scope;
    Config config;
    config.probability = 1.0;
    Registry::instance().arm("race", config);
    std::atomic<uint64_t> caught{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 50; ++i) {
                try {
                    failpoint::fire("race");
                } catch (const FailPointError &) {
                    caught.fetch_add(1);
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(caught.load(), 200u);
    EXPECT_EQ(Registry::instance().fires("race"), 200u);
    EXPECT_EQ(Registry::instance().totalFires(), 200u);
}

} // namespace
} // namespace uov
