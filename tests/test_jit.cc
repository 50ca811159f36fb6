/**
 * @file
 * JitCompiler negative paths and cache behavior: a missing compiler
 * is detectable up front (tests skip, not fail), a failed compile
 * surfaces the compiler's stderr in the exception, and recompiling
 * identical source is a cache hit that never invokes the compiler.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "codegen/codegen.h"
#include "codegen/jit.h"
#include "scoped_jit_cache.h"

namespace uov {
namespace {

JitOptions
freshCacheOptions(const std::string &tag)
{
    static int counter = 0;
    JitOptions opts;
    opts.cache_dir = ::testing::TempDir() + "uov_jit_" + tag + "_" +
                     std::to_string(counter++);
    // TempDir survives across runs; a cached .so from a previous
    // invocation would turn first compiles into cache hits.
    std::filesystem::remove_all(opts.cache_dir);
    return opts;
}

constexpr const char *kTrivialKernel =
    "void jit_trivial(double *output) { output[0] = 42.0; }\n";

TEST(Jit, BrokenUovCcThrowsAtConstructionAndDisablesProbe)
{
    // A set-but-broken UOV_CC is respected, not silently skipped:
    // the probe reports no compiler (so guarded tests skip) and
    // construction raises one actionable error naming the variable.
    ScopedEnv env("UOV_CC", "/nonexistent/uov-cc-binary");
    EXPECT_EQ(JitCompiler::findHostCompiler(), "");
    EXPECT_FALSE(JitCompiler::hostCompilerAvailable());
    try {
        JitCompiler jit(freshCacheOptions("broken_env"));
        FAIL() << "expected UovUserError";
    } catch (const UovUserError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("UOV_CC"), std::string::npos) << msg;
        EXPECT_NE(msg.find("/nonexistent/uov-cc-binary"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("fix or unset"), std::string::npos) << msg;
    }
}

TEST(Jit, UnconfiguredProbeNeverThrows)
{
    // With neither an explicit compiler nor UOV_CC, an empty PATH
    // just means "no compiler": construction succeeds, available()
    // is false, and compile() raises the actionable guidance.
    ScopedEnv cc("UOV_CC", nullptr);
    ScopedEnv path("PATH", "");
    JitCompiler jit(freshCacheOptions("probe"));
    EXPECT_FALSE(jit.available());
    try {
        jit.compile(kTrivialKernel);
        FAIL() << "expected UovUserError";
    } catch (const UovUserError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("no host C compiler found"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("UOV_CC"), std::string::npos) << msg;
    }
}

TEST(Jit, CompileErrorSurfacesStderr)
{
    if (!JitCompiler::hostCompilerAvailable())
        GTEST_SKIP() << "no host C compiler on PATH";
    JitCompiler jit(freshCacheOptions("err"));
    try {
        jit.compile("void broken( { this is not C;\n");
        FAIL() << "expected UovError";
    } catch (const UovError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("JIT compilation failed"),
                  std::string::npos)
            << msg;
        // The diagnostic text itself must ride along, not just a
        // return code.
        EXPECT_NE(msg.find("compiler stderr:"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("error"), std::string::npos) << msg;
    }
    // The failed compile's source, object and log are gone.
    EXPECT_TRUE(std::filesystem::is_empty(jit.cacheDir()));
}

TEST(Jit, CacheHitSkipsCompilerInvocation)
{
    if (!JitCompiler::hostCompilerAvailable())
        GTEST_SKIP() << "no host C compiler on PATH";
    JitCompiler jit(freshCacheOptions("cache"));

    std::string first = jit.compile(kTrivialKernel);
    EXPECT_EQ(jit.compilesInvoked(), 1u);
    EXPECT_EQ(jit.cacheHits(), 0u);

    std::string second = jit.compile(kTrivialKernel);
    EXPECT_EQ(second, first);
    EXPECT_EQ(jit.compilesInvoked(), 1u) << "cache hit recompiled";
    EXPECT_EQ(jit.cacheHits(), 1u);

    // Different source, different object.
    std::string third = jit.compile(
        "void jit_other(double *output) { output[0] = 7.0; }\n");
    EXPECT_NE(third, first);
    EXPECT_EQ(jit.compilesInvoked(), 2u);
}

TEST(Jit, CacheKeyCoversFlagsAndSource)
{
    JitCompiler ja(freshCacheOptions("key"));
    EXPECT_NE(ja.cacheKey(kTrivialKernel), ja.cacheKey("int x;\n"));
    EXPECT_EQ(ja.cacheKey(kTrivialKernel), ja.cacheKey(kTrivialKernel));
}

TEST(Jit, LoadAndResolveSymbols)
{
    if (!JitCompiler::hostCompilerAvailable())
        GTEST_SKIP() << "no host C compiler on PATH";
    JitCompiler jit(freshCacheOptions("load"));
    JitKernel kernel = jit.load(jit.compile(kTrivialKernel));
    ASSERT_TRUE(static_cast<bool>(kernel));

    auto fn = kernel.fn<void (*)(double *)>("jit_trivial");
    double out = 0.0;
    fn(&out);
    EXPECT_EQ(out, 42.0);

    EXPECT_THROW(kernel.sym("no_such_symbol"), UovError);

    // Moved-from kernels give up their handle.
    JitKernel moved = std::move(kernel);
    EXPECT_TRUE(static_cast<bool>(moved));
    EXPECT_FALSE(static_cast<bool>(kernel));
}

TEST(Jit, TmpdirWithQuoteAndSpaceCompilesAndRuns)
{
    if (!JitCompiler::hostCompilerAvailable())
        GTEST_SKIP() << "no host C compiler on PATH";
    // The default object cache lives under $TMPDIR, and the compiler
    // runs without a shell, so a quote or a space in that path is just
    // another path character.
    ScopedJitCache cache("q'dir with space");
    JitCompiler jit;
    std::string so_path = jit.compile(kTrivialKernel);
    EXPECT_EQ(so_path.rfind(cache.dir(), 0), 0u) << so_path;
    EXPECT_EQ(jit.compilesInvoked(), 1u);
    JitKernel kernel = jit.load(so_path);
    double out = 0.0;
    kernel.fn<void (*)(double *)>("jit_trivial")(&out);
    EXPECT_EQ(out, 42.0);
}

TEST(Jit, CompileAndLoadGeneratedKernel)
{
    if (!JitCompiler::hostCompilerAvailable())
        GTEST_SKIP() << "no host C compiler on PATH";
    LoopNest nest = nests::simpleExample(8, 9);
    MappingPlan plan = planStorageMapping(nest, 0);
    GeneratedCode code = generateC(nest, plan);

    JitCompiler jit(freshCacheOptions("gen"));
    JitKernel kernel = jit.compileAndLoad(code);
    std::vector<double> out(
        static_cast<size_t>(outputCellCount(nest)), -1.0);
    kernel.fn<void (*)(double *)>(code.function_name.c_str())(
        out.data());
    EXPECT_EQ(out, interpretKernel(nest));
}

TEST(Jit, ConcurrentCompilesOfOneSource)
{
    if (!JitCompiler::hostCompilerAvailable())
        GTEST_SKIP() << "no host C compiler on PATH";
    // Identical requests served at once compile one source in several
    // threads of one process: every compile needs its own temporary
    // files, and the threads must not run the one loaded object -- and
    // with it the kernel's static scratch array -- at the same time.
    LoopNest nest = nests::fivePointStencil(31, 255);
    GeneratedCode code = generateC(nest, planStorageMapping(nest, 0));
    const std::vector<double> want = interpretKernel(nest);
    constexpr int kThreads = 4;
    for (int round = 0; round < 10; ++round) {
        JitOptions opts = freshCacheOptions("concurrent");
        std::vector<std::string> errors(kThreads);
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                try {
                    JitCompiler jit(opts);
                    JitKernel kernel = jit.load(jit.compile(code.source));
                    auto fn = kernel.fn<void (*)(double *)>(
                        code.function_name);
                    for (int run = 0; run < 3; ++run) {
                        std::vector<double> got(want.size(), -1.0);
                        fn(got.data());
                        if (got != want) {
                            errors[static_cast<size_t>(t)] =
                                "kernel diverged from the interpreter";
                            return;
                        }
                    }
                } catch (const UovError &e) {
                    errors[static_cast<size_t>(t)] = e.what();
                }
            });
        for (std::thread &th : threads)
            th.join();
        for (int t = 0; t < kThreads; ++t)
            EXPECT_EQ(errors[static_cast<size_t>(t)], "")
                << "round " << round << ", thread " << t;
        std::filesystem::remove_all(opts.cache_dir);
    }
}

} // namespace
} // namespace uov
