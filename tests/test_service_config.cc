/**
 * @file
 * The drivers' flag table (support/flags.h) and uovd's ServiceConfig:
 * the whole-token number rule, usage layout, error texts, and every
 * uovd flag parsed in-process into its field.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "driver/service_config.h"
#include "support/flags.h"

namespace uov {
namespace {

using service::ServiceConfig;
using service::serviceFlags;

/** The FlagError text @p table raises on @p args ("" when none). */
std::string
parseError(const FlagTable &table, const std::vector<std::string> &args)
{
    try {
        table.parse(args);
    } catch (const FlagError &e) {
        return e.what();
    }
    return "";
}

TEST(Flags, NumbersAreWholeTokensThatFitTheirType)
{
    int64_t i = 7;
    EXPECT_TRUE(parseWholeNumber("-42", i));
    EXPECT_EQ(i, -42);
    for (const char *bad : {"", "2x", "1e3", "1.5", "+5", " 5", "5 ",
                            "0x10", "9223372036854775808"}) {
        EXPECT_FALSE(parseWholeNumber(bad, i)) << bad;
        EXPECT_EQ(i, -42) << "out changed on '" << bad << "'";
    }

    unsigned u = 0;
    EXPECT_FALSE(parseWholeNumber("-1", u));
    EXPECT_FALSE(parseWholeNumber("4294967296", u));
    EXPECT_TRUE(parseWholeNumber("4294967295", u));
    EXPECT_EQ(u, 4294967295u);

    uint64_t seed = 0;
    EXPECT_TRUE(parseWholeNumber("18446744073709551615", seed));
    EXPECT_EQ(seed, UINT64_MAX);

    double r = 0;
    EXPECT_TRUE(parseWholeNumber("0.25", r));
    EXPECT_EQ(r, 0.25);
    EXPECT_TRUE(parseWholeNumber("-1", r));
    EXPECT_FALSE(parseWholeNumber("0.5x", r));
}

TEST(Flags, UsageComesFromTheEntries)
{
    int n = 0;
    FlagTable table("prog", "usage: prog [options]\n", 12);
    table.number("--n N", "a count\nsecond line", n)
        .add("--on", "", [](auto &) {})
        .number("--long-flag N", "past the column", n);
    std::ostringstream os;
    table.usage(os);
    EXPECT_EQ(os.str(), "usage: prog [options]\n"
                        "  --n N     a count\n"
                        "            second line\n"
                        "  --on\n"
                        "  --long-flag N  past the column\n");
}

TEST(Flags, AppliesInOrderAndReturnsPositionals)
{
    std::vector<std::string> seen;
    FlagTable table("prog", "", 20);
    table.add("--v X", "",
              [&](const std::string &v) { seen.push_back(v); })
        .add("--s", "", [&](auto &) { seen.push_back("s"); });

    std::vector<std::string> positionals;
    EXPECT_TRUE(
        table.parse({"a", "--v", "--s", "--s", "b"}, &positionals));
    // A valued flag takes the next argument, whatever it looks like.
    EXPECT_EQ(seen, (std::vector<std::string>{"--s", "s"}));
    EXPECT_EQ(positionals, (std::vector<std::string>{"a", "b"}));
    // A word that starts with '-' is never a positional.
    EXPECT_THROW(table.parse({"-"}, &positionals), FlagError);
}

TEST(Flags, ErrorsNameTheFlag)
{
    int n = 0;
    FlagTable table("prog", "", 20);
    table.number("--n N", "", n);
    EXPECT_EQ(parseError(table, {"--n"}), "--n needs a value");
    EXPECT_EQ(parseError(table, {"--n", "3x"}),
              "bad numeric value for --n");
    EXPECT_EQ(parseError(table, {"--m"}), "unknown option '--m'");
    // Without a positional sink a bare word is an unknown option too.
    EXPECT_EQ(parseError(table, {"word"}), "unknown option 'word'");
    try {
        table.parse({"--m"});
        FAIL() << "expected a FlagError";
    } catch (const FlagError &e) {
        EXPECT_TRUE(e.show_usage);
    }
    try {
        table.parse({"--n"});
        FAIL() << "expected a FlagError";
    } catch (const FlagError &e) {
        EXPECT_FALSE(e.show_usage);
    }
}

TEST(Flags, HelpStopsTheParse)
{
    int n = 0;
    FlagTable table("prog", "", 20);
    table.number("--n N", "", n);
    EXPECT_FALSE(table.parse({"--n", "1", "--help", "--bogus"}));
    EXPECT_EQ(n, 1);
    EXPECT_FALSE(table.parse({"-h"}));
}

TEST(Flags, RunPrintsOneErrorLineOrTheUsage)
{
    int n = 0;
    FlagTable table("prog", "usage: prog\n", 10);
    table.number("--n N", "a count", n);
    auto run = [&](std::vector<const char *> args) {
        args.insert(args.begin(), "prog");
        return table.run(static_cast<int>(args.size()),
                         const_cast<char **>(args.data()));
    };

    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    EXPECT_EQ(run({"--n", "-"}), 2);
    EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "prog: bad numeric value for --n\n");

    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    EXPECT_EQ(run({"--x"}), 2);
    EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "prog: unknown option '--x'\nusage: prog\n"
              "  --n N   a count\n");

    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    EXPECT_EQ(run({"--help"}), 0);
    EXPECT_EQ(testing::internal::GetCapturedStdout(),
              "usage: prog\n  --n N   a count\n");
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

    EXPECT_FALSE(run({"--n", "5"}).has_value());
    EXPECT_EQ(n, 5);
}

/** uovd's flags parsed in-process. */
ServiceConfig
parsed(const std::vector<std::string> &args)
{
    ServiceConfig config;
    EXPECT_TRUE(serviceFlags(config).parse(args));
    return config;
}

/** The FlagError text uovd's flags raise on @p args. */
std::string
serviceError(const std::vector<std::string> &args)
{
    ServiceConfig config;
    return parseError(serviceFlags(config), args);
}

TEST(ServiceConfig, NoFlagsKeepTheDaemonDefaults)
{
    ServiceConfig c = parsed({});
    EXPECT_EQ(c.service.cache_bytes, 64ull << 20);
    EXPECT_EQ(c.service.cache_shards, 16u);
    EXPECT_EQ(c.service.max_visits, 10'000'000u);
    EXPECT_EQ(c.service.store_path, "");
    EXPECT_EQ(c.admission.high_water, 0);
    EXPECT_TRUE(c.nest_paths.empty());
    EXPECT_EQ(c.threads, 0u);
    EXPECT_EQ(c.request_deadline_ms, -1);
    EXPECT_EQ(c.admin_port, -1);
    EXPECT_EQ(c.flight_size, 256u);
    EXPECT_EQ(c.log_level, LogLevel::Warn);
    EXPECT_EQ(c.metrics_path, "");
    EXPECT_FALSE(c.log_json || c.trace_ids || c.admin_hold || c.version);
}

TEST(ServiceConfig, EveryFlagLandsInItsField)
{
    ServiceConfig c = parsed({
        "--input", "q.txt", "--output", "r.txt",
        "--nest", "a.nest", "--nest", "b.nest",
        "--threads", "3", "--cache-bytes", "1024",
        "--max-visits", "500", "--store", "s.log", "--shed-high", "40",
        "--admin-port", "0", "--admin-port-file", "port.txt",
        "--admin-hold", "--flight-size", "32", "--trace-ids",
        "--log-json", "--log-level", "debug",
        "--request-deadline-ms", "0",
        "--metrics", "-", "--trace", "t.json",
        "--version",
    });
    EXPECT_EQ(c.input_path, "q.txt");
    EXPECT_EQ(c.output_path, "r.txt");
    EXPECT_EQ(c.nest_paths,
              (std::vector<std::string>{"a.nest", "b.nest"}));
    EXPECT_EQ(c.threads, 3u);
    EXPECT_EQ(c.service.cache_bytes, 1024u);
    EXPECT_EQ(c.service.max_visits, 500u);
    EXPECT_EQ(c.service.store_path, "s.log");
    EXPECT_EQ(c.admission.high_water, 40);
    EXPECT_EQ(c.admin_port, 0);
    EXPECT_EQ(c.admin_port_file, "port.txt");
    EXPECT_TRUE(c.admin_hold);
    EXPECT_EQ(c.flight_size, 32u);
    EXPECT_TRUE(c.trace_ids);
    EXPECT_TRUE(c.log_json);
    EXPECT_EQ(c.log_level, LogLevel::Debug);
    EXPECT_EQ(c.request_deadline_ms, 0);
    EXPECT_EQ(c.metrics_path, "-");
    EXPECT_EQ(c.trace_path, "t.json");
    EXPECT_TRUE(c.version);
}

TEST(ServiceConfig, UsageListsEveryFlag)
{
    ServiceConfig config;
    std::ostringstream os;
    serviceFlags(config).usage(os);
    for (const char *flag :
         {"--input FILE", "--output FILE", "--nest FILE", "--threads N",
          "--cache-bytes N", "--max-visits N", "--store FILE",
          "--shed-high N", "--admin-port N", "--admin-port-file F",
          "--admin-hold", "--flight-size K", "--trace-ids", "--log-json",
          "--log-level L", "--request-deadline-ms N", "--metrics FILE",
          "--trace FILE", "--version"})
        EXPECT_NE(os.str().find(std::string("\n  ") + flag),
                  std::string::npos)
            << flag;
}

TEST(ServiceConfig, LastFlagWins)
{
    EXPECT_EQ(parsed({"--cache-bytes", "0", "--cache-bytes", "5"})
                  .service.cache_bytes,
              5u);
    EXPECT_EQ(parsed({"--cache-bytes", "5", "--cache-bytes", "0"})
                  .service.cache_bytes,
              0u);
    EXPECT_EQ(parsed({"--threads", "2", "--threads", "8"}).threads, 8u);
    EXPECT_EQ(parsed({"--log-level", "info", "--log-level", "error"})
                  .log_level,
              LogLevel::Error);
}

TEST(ServiceConfig, MissingValueIsRejected)
{
    for (const char *flag :
         {"--input", "--nest", "--threads", "--store", "--admin-port",
          "--log-level", "--shed-high", "--trace"}) {
        EXPECT_EQ(serviceError({"--admin-hold", flag}),
                  std::string(flag) + " needs a value");
    }
}

TEST(ServiceConfig, BadNumbersAreRejected)
{
    struct Case
    {
        const char *flag;
        const char *value;
    };
    for (const Case &c : std::vector<Case>{
             {"--threads", "-1"}, // a negative count
             {"--flight-size", "-1"},
             {"--max-visits", "1e9"}, // a float for an integer
             {"--request-deadline-ms", "0.5"},
             {"--cache-bytes", "64k"}, // trailing junk
             {"--shed-high", "10 "},
             {"--threads", "4294967296"}, // out of range
             {"--request-deadline-ms", "9223372036854775808"},
             {"--max-visits", ""}}) { // an empty value
        EXPECT_EQ(serviceError({c.flag, c.value}),
                  std::string("bad numeric value for ") + c.flag)
            << c.flag << " " << c.value;
    }
}

TEST(ServiceConfig, AdminPortMustFitAPort)
{
    EXPECT_EQ(serviceError({"--admin-port", "65536"}),
              "--admin-port must be in [0, 65535]");
    EXPECT_EQ(serviceError({"--admin-port", "-1"}),
              "--admin-port must be in [0, 65535]");
    EXPECT_EQ(serviceError({"--admin-port", "80x"}),
              "bad numeric value for --admin-port");
    EXPECT_EQ(parsed({"--admin-port", "65535"}).admin_port, 65535);
    EXPECT_EQ(parsed({"--admin-port", "0"}).admin_port, 0);
}

// --threads starts that many OS threads and --flight-size allocates
// that many digest slots, so each stops at a bound with one error
// line; 0 keeps its meaning (hardware threads, the smallest ring).
TEST(ServiceConfig, ThreadsAndFlightSizeAreBounded)
{
    EXPECT_EQ(parsed({"--threads", "1024"}).threads, 1024u);
    EXPECT_EQ(parsed({"--threads", "0"}).threads, 0u);
    EXPECT_EQ(serviceError({"--threads", "1025"}),
              "--threads must be in [0, 1024]");
    EXPECT_EQ(serviceError({"--threads", "4294967295"}),
              "--threads must be in [0, 1024]");
    EXPECT_EQ(parsed({"--flight-size", "65536"}).flight_size, 65536u);
    EXPECT_EQ(parsed({"--flight-size", "0"}).flight_size, 0u);
    EXPECT_EQ(serviceError({"--flight-size", "65537"}),
              "--flight-size must be in [0, 65536]");
    EXPECT_EQ(serviceError({"--flight-size", "18446744073709551615"}),
              "--flight-size must be in [0, 65536]");
}

TEST(ServiceConfig, LogLevelNames)
{
    EXPECT_EQ(parsed({"--log-level", "error"}).log_level,
              LogLevel::Error);
    EXPECT_EQ(parsed({"--log-level", "warn"}).log_level, LogLevel::Warn);
    EXPECT_EQ(parsed({"--log-level", "info"}).log_level, LogLevel::Info);
    EXPECT_EQ(parsed({"--log-level", "debug"}).log_level,
              LogLevel::Debug);
    EXPECT_EQ(serviceError({"--log-level", "loud"}),
              "bad --log-level 'loud'");
    EXPECT_EQ(serviceError({"--log-level", "WARN"}),
              "bad --log-level 'WARN'");
}

TEST(ServiceConfig, UnknownFlagIsRejected)
{
    EXPECT_EQ(serviceError({"--no-such-flag"}),
              "unknown option '--no-such-flag'");
    EXPECT_EQ(serviceError({"--threads", "2", "stray"}),
              "unknown option 'stray'");
    // Flags match whole: no prefixes, no --x=y form.
    EXPECT_EQ(serviceError({"--thread", "2"}),
              "unknown option '--thread'");
    EXPECT_EQ(serviceError({"--threads=2"}),
              "unknown option '--threads=2'");
}

} // namespace
} // namespace uov
