/**
 * @file
 * The environment a JIT compile reads, scoped to one test: ScopedEnv
 * sets one variable, and ScopedJitCache gives the test an empty JIT
 * object cache of its own.  Both restore what they changed in their
 * destructors, so an assertion or exception that ends a test early
 * leaves the next test the environment it started with.
 */

#ifndef UOV_TESTS_SCOPED_JIT_CACHE_H
#define UOV_TESTS_SCOPED_JIT_CACHE_H

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include <unistd.h>

namespace uov {

/** Scoped setenv/unsetenv that restores the old value on exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : _name(name)
    {
        const char *old = std::getenv(name);
        if (old != nullptr) {
            _had_old = true;
            _old = old;
        }
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (_had_old)
            ::setenv(_name.c_str(), _old.c_str(), 1);
        else
            ::unsetenv(_name.c_str());
    }
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    std::string _name;
    bool _had_old = false;
    std::string _old;
};

/**
 * An empty JIT object cache for one scope.  JitCompiler's default
 * cache is <TMPDIR>/uov-jit-cache-<uid>, so this points TMPDIR at a
 * new directory under the test temp dir (named by @p tag and the pid:
 * ctest runs tests as concurrent processes) and removes it on exit.
 * A rerun therefore compiles again instead of loading objects an
 * earlier run left behind.
 */
class ScopedJitCache
{
  public:
    explicit ScopedJitCache(const std::string &tag)
        : _dir(emptyDir(tag)), _tmpdir("TMPDIR", _dir.c_str())
    {}
    ~ScopedJitCache()
    {
        std::error_code ec;
        std::filesystem::remove_all(_dir, ec);
    }
    ScopedJitCache(const ScopedJitCache &) = delete;
    ScopedJitCache &operator=(const ScopedJitCache &) = delete;

    /** The directory TMPDIR names while this scope lives. */
    const std::string &dir() const { return _dir; }

  private:
    static std::string
    emptyDir(const std::string &tag)
    {
        std::string dir = ::testing::TempDir() + "uov_jit_" + tag + "_" +
                          std::to_string(static_cast<long>(::getpid()));
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        return dir;
    }

    std::string _dir;
    ScopedEnv _tmpdir;
};

} // namespace uov

#endif // UOV_TESTS_SCOPED_JIT_CACHE_H
