#include "codegen/jit.h"

#include <dlfcn.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "codegen/codegen.h"
#include "support/error.h"
#include "support/lex.h"
#include "support/logging.h"

namespace uov {

namespace fs = std::filesystem;

namespace {

/** True when @p path names an executable regular file. */
bool
isExecutable(const fs::path &path)
{
    std::error_code ec;
    if (!fs::is_regular_file(path, ec))
        return false;
    return ::access(path.c_str(), X_OK) == 0;
}

/** Resolve @p name against PATH ("" when absent). */
std::string
searchPath(const std::string &name)
{
    if (name.find('/') != std::string::npos)
        return isExecutable(name) ? name : "";
    const char *path = std::getenv("PATH");
    if (path == nullptr)
        return "";
    Fields dirs(path, ':');
    for (std::string_view dir; dirs.next(dir);) {
        if (dir.empty())
            continue;
        fs::path candidate = fs::path(dir) / name;
        if (isExecutable(candidate))
            return candidate.string();
    }
    return "";
}

/** FNV-1a 64-bit over a byte string. */
uint64_t
fnv1a(uint64_t h, const std::string &bytes)
{
    for (unsigned char b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    // Separate fields so {"ab","c"} and {"a","bc"} hash apart.
    h ^= 0xff;
    h *= 0x100000001b3ULL;
    return h;
}

/** Read a whole file ("" when unreadable). */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

/** Compile @p c_path into the shared object @p so_path, the
 *  compiler's stderr going to @p log_path.  @throws UovError carrying
 *  the command line and that stderr */
void
runHostCompiler(const std::string &compiler, const std::string &c_path,
                const std::string &so_path, const std::string &log_path)
{
    std::vector<std::string> args{compiler};
    args.insert(args.end(), std::begin(kJitFlags), std::end(kJitFlags));
    args.insert(args.end(), {"-shared", "-fPIC", "-o", so_path, c_path});

    // Spawn the compiler directly: no shell ever reads the paths, so
    // no character in them (a quote in $TMPDIR, say) can break or
    // change the command.  Its stderr goes to the log.
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                     log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0666);
    pid_t pid = -1;
    int rc = -1; // the wait status, as std::system reported it
    int err = ::posix_spawn(&pid, compiler.c_str(), &actions, nullptr,
                            argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    std::string spawn_error;
    if (err == 0) {
        while (::waitpid(pid, &rc, 0) < 0 && errno == EINTR) {
        }
    } else {
        spawn_error = std::string("cannot run compiler: ") +
                      std::strerror(err) + "\n";
    }
    if (rc != 0) {
        // The command as a shell would spell it, for the reader.
        std::ostringstream cmd;
        cmd << "'" << compiler << "'";
        for (const char *f : kJitFlags)
            cmd << " " << f;
        cmd << " -shared -fPIC -o '" << so_path << "' '" << c_path
            << "' 2> '" << log_path << "'";
        throw UovError("JIT compilation failed (rc=" +
                       std::to_string(rc) + "): " + cmd.str() +
                       "\ncompiler stderr:\n" + spawn_error +
                       slurp(log_path));
    }
}

/** Removes one compile's temporary files on every path out. */
class TempFiles
{
  public:
    explicit TempFiles(std::vector<std::string> names)
        : paths(std::move(names))
    {}
    ~TempFiles()
    {
        std::error_code ec;
        for (const std::string &path : paths)
            fs::remove(path, ec);
    }
    TempFiles(const TempFiles &) = delete;
    TempFiles &operator=(const TempFiles &) = delete;

    const std::vector<std::string> paths;
};

/** Tells apart the temporary files of one process's compiles. */
std::atomic<uint64_t> g_compile_serial{0};

/**
 * Which thread holds each loaded object (see JitKernel): a handle
 * maps to its holding thread and how many JitKernels of that thread
 * hold it; absent means free.
 */
class HandleOwners
{
  public:
    /** Wait until @p handle is free or held by this thread; hold it. */
    void
    acquire(void *handle)
    {
        std::thread::id self = std::this_thread::get_id();
        std::unique_lock<std::mutex> lock(_mutex);
        _freed.wait(lock, [&] {
            auto it = _owners.find(handle);
            return it == _owners.end() || it->second.thread == self;
        });
        Owner &owner = _owners[handle];
        owner.thread = self;
        ++owner.holds;
    }

    /** Drop one hold on @p handle. */
    void
    release(void *handle)
    {
        {
            std::lock_guard<std::mutex> lock(_mutex);
            auto it = _owners.find(handle);
            if (it != _owners.end() && --it->second.holds == 0)
                _owners.erase(it);
        }
        _freed.notify_all();
    }

  private:
    struct Owner
    {
        std::thread::id thread;
        int holds = 0;
    };

    std::mutex _mutex;
    std::condition_variable _freed;
    std::unordered_map<void *, Owner> _owners;
};

/** The process's one HandleOwners; never destroyed, so a JitKernel
 *  released during static destruction still finds it. */
HandleOwners &
handleOwners()
{
    static HandleOwners *owners = new HandleOwners;
    return *owners;
}

} // namespace

JitKernel::~JitKernel()
{
    unload();
}

void
JitKernel::unload()
{
    if (_handle == nullptr)
        return;
    ::dlclose(_handle);
    handleOwners().release(_handle);
    _handle = nullptr;
}

JitKernel::JitKernel(JitKernel &&other) noexcept
    : _handle(other._handle), _path(std::move(other._path))
{
    other._handle = nullptr;
}

JitKernel &
JitKernel::operator=(JitKernel &&other) noexcept
{
    if (this != &other) {
        unload();
        _handle = other._handle;
        _path = std::move(other._path);
        other._handle = nullptr;
    }
    return *this;
}

void *
JitKernel::sym(const std::string &name) const
{
    UOV_REQUIRE(_handle != nullptr,
                "JitKernel::sym('" << name
                                   << "'): no shared object loaded");
    ::dlerror(); // clear
    void *addr = ::dlsym(_handle, name.c_str());
    if (addr == nullptr) {
        const char *err = ::dlerror();
        throw UovError("dlsym('" + name + "') failed in " + _path +
                       ": " + (err ? err : "symbol is null"));
    }
    return addr;
}

JitCompiler::JitCompiler(JitOptions options)
{
    // A set $UOV_CC that does not resolve is a configuration error
    // surfaced once, here, rather than as a confusing shell failure on
    // every compile().  Only the unconfigured probe (cc/gcc/clang on
    // PATH) may quietly come up empty; that is the graceful
    // skip-not-fail path.
    const char *env = std::getenv("UOV_CC");
    if (env != nullptr && *env != '\0') {
        _compiler = searchPath(env);
        UOV_REQUIRE(!_compiler.empty(),
                    "UOV_CC='" << env
                        << "' is not an executable on PATH or disk; "
                           "fix or unset UOV_CC");
    } else {
        _compiler = findHostCompiler();
    }
    if (options.cache_dir.empty()) {
        _cache_dir = (fs::temp_directory_path() /
                      ("uov-jit-cache-" +
                       std::to_string(static_cast<long>(::getuid()))))
                         .string();
    } else {
        _cache_dir = options.cache_dir;
    }
}

std::string
JitCompiler::findHostCompiler()
{
    // A set-but-broken UOV_CC is respected, not silently skipped:
    // returning "" here makes hostCompilerAvailable() false, so
    // skip-guarded tests skip and JitCompiler construction raises
    // one actionable error instead of falling back behind the
    // user's back.
    if (const char *env = std::getenv("UOV_CC")) {
        if (*env != '\0')
            return searchPath(env);
    }
    for (const char *candidate : {"cc", "gcc", "clang"}) {
        std::string found = searchPath(candidate);
        if (!found.empty())
            return found;
    }
    return "";
}

bool
JitCompiler::hostCompilerAvailable()
{
    return !findHostCompiler().empty();
}

std::string
JitCompiler::cacheKey(const std::string &source) const
{
    uint64_t h = 0xcbf29ce484222325ULL;
    h = fnv1a(h, _compiler);
    for (const char *f : kJitFlags)
        h = fnv1a(h, f);
    h = fnv1a(h, source);
    std::ostringstream oss;
    oss << std::hex << h;
    return oss.str();
}

std::string
JitCompiler::compile(const std::string &source)
{
    UOV_REQUIRE(available(),
                "no host C compiler found (set UOV_CC or put cc, "
                "gcc, or clang on PATH)");
    fs::create_directories(_cache_dir);

    std::string key = cacheKey(source);
    std::string so_path =
        (fs::path(_cache_dir) / ("uovjit-" + key + ".so")).string();
    std::error_code ec;
    if (fs::exists(so_path, ec)) {
        ++_cache_hits;
        return so_path;
    }

    // Every compile works under names of its own, then publishes by
    // rename: a concurrent compile of the same source, in this process
    // or another, either misses (and compiles its own copy) or sees a
    // complete .so, never a torn one.  No temporary name ends in ".so",
    // so the cache's .so files are exactly its published objects.
    std::string stem =
        (fs::path(_cache_dir) /
         ("uovjit-" + key + ".tmp." +
          std::to_string(static_cast<long>(::getpid())) + "." +
          std::to_string(g_compile_serial.fetch_add(1))))
            .string();
    TempFiles temps({stem + ".c", stem + ".obj", stem + ".log"});
    const std::string &c_path = temps.paths[0];
    const std::string &obj_path = temps.paths[1];
    {
        std::ofstream f(c_path);
        UOV_REQUIRE(f.good(), "cannot write " << c_path);
        f << source;
    }
    ++_compiles;
    runHostCompiler(_compiler, c_path, obj_path, temps.paths[2]);
    fs::rename(obj_path, so_path, ec);
    UOV_REQUIRE(!ec || fs::exists(so_path), "cannot publish " << so_path);
    UOV_LOG_INFO("jit: compiled " << so_path);
    return so_path;
}

JitKernel
JitCompiler::load(const std::string &so_path) const
{
    void *handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (handle == nullptr) {
        const char *err = ::dlerror();
        throw UovError("dlopen('" + so_path +
                       "') failed: " + (err ? err : "unknown error"));
    }
    handleOwners().acquire(handle);
    return JitKernel(handle, so_path);
}

JitKernel
JitCompiler::compileAndLoad(const GeneratedCode &code)
{
    return load(compile(code.source));
}

} // namespace uov
