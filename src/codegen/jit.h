/**
 * @file
 * Compile-and-dlopen JIT pipeline for generated kernels.
 *
 * JitCompiler shells out to a host C compiler (UOV_CC, then cc / gcc /
 * clang on PATH) with kJitFlags, caches the shared objects it
 * produces under a content hash of (compiler, flags, source) so
 * identical source is never compiled twice, and loads kernels through
 * dlopen/dlsym wrapped in the RAII JitKernel (dlclose on destruction).
 *
 * The flags are one constant on purpose: the differential oracle
 * compares JIT output bit-exactly against the C++ interpreter, and
 * FMA contraction under -march=native would change the rounding of
 * the generated a*b+c chains, so no caller may drop -ffp-contract=off.
 *
 * Everything degrades loudly but gracefully: a missing compiler is
 * detectable up front (available() / hostCompilerAvailable()), and a
 * failed compile throws a UovError carrying the compiler's stderr.
 * A set UOV_CC that does not resolve to an executable is a
 * configuration error: construction throws one actionable
 * UovUserError instead of silently falling back or failing per
 * compile.
 */

#ifndef UOV_CODEGEN_JIT_H
#define UOV_CODEGEN_JIT_H

#include <cstdint>
#include <string>

namespace uov {

struct GeneratedCode;

/** The compiler flags of every JIT compile (the cache key includes
 *  them); -ffp-contract=off keeps kernels bit-exact with the
 *  interpreter. */
inline constexpr const char *kJitFlags[] = {"-O2", "-march=native",
                                            "-ffp-contract=off"};

/**
 * A dlopen'ed shared object; unloads (dlclose) on destruction.
 *
 * While a JitKernel holds an object, the object is exclusive to the
 * thread that loaded it, within the process.  Every generated kernel
 * keeps its scratch array in a file-scope static, and dlopen hands
 * every loader of one file the same handle, so two threads running
 * one object at once would share that array.  Another thread's
 * JitCompiler::load of the same object therefore waits until every
 * JitKernel holding it is gone; the holding thread itself may load it
 * again without waiting.  A thread that holds one object and loads
 * another waits like any loader, so two threads must never each hold
 * an object the other is loading.
 */
class JitKernel
{
  public:
    JitKernel() = default;
    ~JitKernel();

    JitKernel(JitKernel &&other) noexcept;
    JitKernel &operator=(JitKernel &&other) noexcept;
    JitKernel(const JitKernel &) = delete;
    JitKernel &operator=(const JitKernel &) = delete;

    /** True when a shared object is loaded. */
    explicit operator bool() const { return _handle != nullptr; }

    /** Path of the loaded .so. */
    const std::string &path() const { return _path; }

    /**
     * Resolve @p name.  @throws UovError when nothing is loaded or
     * the symbol is missing (message carries dlerror()).
     */
    void *sym(const std::string &name) const;

    /** Typed convenience: kernel.fn<void (*)(double *)>("f"). */
    template <typename Fn>
    Fn
    fn(const std::string &name) const
    {
        return reinterpret_cast<Fn>(sym(name));
    }

  private:
    friend class JitCompiler;
    JitKernel(void *handle, std::string path)
        : _handle(handle), _path(std::move(path))
    {}

    /** dlclose the object and end this kernel's hold on it. */
    void unload();

    void *_handle = nullptr;
    std::string _path;
};

/** JitCompiler configuration. */
struct JitOptions
{
    /** Shared-object cache directory; empty uses
     *  <tmp>/uov-jit-cache-<uid>. */
    std::string cache_dir;
};

/**
 * Shells out to the host C compiler and caches the results.
 *
 * Cache keying: FNV-1a over compiler path, flags, and full source
 * text; a hit returns the existing .so without invoking the compiler
 * (observable through cacheHits() / compilesInvoked(), which the
 * negative-path tests assert).  Every compile writes its source,
 * object and log under names of its own (pid plus a process-wide
 * serial, none ending in ".so") and publishes the object by rename,
 * so concurrent compiles of one source -- in other processes or other
 * threads -- never load a half-written .so; the temporary files are
 * removed on every path.
 */
class JitCompiler
{
  public:
    /** @throws UovUserError when a nonempty $UOV_CC is nonexistent
     *  or not executable.  The unconfigured probe never throws. */
    explicit JitCompiler(JitOptions options = {});

    /** Detected compiler path ("" when none was found). */
    const std::string &compiler() const { return _compiler; }

    /** True when a compiler is available to this instance. */
    bool available() const { return !_compiler.empty(); }

    /** Probe the default candidates (for skip-not-fail guards). */
    static bool hostCompilerAvailable();

    /** First of $UOV_CC, cc, gcc, clang found on PATH ("" if none). */
    static std::string findHostCompiler();

    /** Content-hash cache key of @p source under this configuration. */
    std::string cacheKey(const std::string &source) const;

    /**
     * Compile @p source to a shared object; returns its path.
     * @throws UovUserError when no compiler is available
     * @throws UovError on compile failure (message carries stderr)
     */
    std::string compile(const std::string &source);

    /**
     * dlopen @p so_path, waiting while another thread holds the same
     * object (see JitKernel).
     * @throws UovError with dlerror() on failure
     */
    JitKernel load(const std::string &so_path) const;

    /** compile() + load() for a generated compilation unit. */
    JitKernel compileAndLoad(const GeneratedCode &code);

    /** Compiler invocations this instance has performed. */
    uint64_t compilesInvoked() const { return _compiles; }

    /** compile() calls satisfied from the shared-object cache. */
    uint64_t cacheHits() const { return _cache_hits; }

    const std::string &cacheDir() const { return _cache_dir; }

  private:
    std::string _compiler;
    std::string _cache_dir;
    uint64_t _compiles = 0;
    uint64_t _cache_hits = 0;
};

} // namespace uov

#endif // UOV_CODEGEN_JIT_H
