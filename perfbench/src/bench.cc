#include "bench.h"

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "codegen/jit.h"
#include "core/storage_count.h"
#include "core/uov.h"
#include "geometry/polyhedron.h"

namespace perfbench {

using namespace uov;
using namespace uov::service;

void
Outcome::fail(const std::string &why)
{
    ++failed;
    correct = false;
    // Keep the log readable when one defect fails every request.
    if (failed <= 10)
        notes.push_back("FAILED: " + why);
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
peakRssMiB()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

void
resetPeakRss()
{
    ::malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

std::unique_ptr<QueryService>
makeService(MetricsRegistry &metrics, const fs::path &store)
{
    ServiceOptions options;
    options.max_visits = kNodeBudget;
    options.store_path = store.string();
    return std::make_unique<QueryService>(options, metrics);
}

fs::path
freshJitCache(const fs::path &dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    ::setenv("TMPDIR", dir.c_str(), 1);
    return JitCompiler().cacheDir();
}

size_t
countSharedObjects(const fs::path &cache)
{
    size_t n = 0;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(cache, ec))
        if (entry.path().extension() == ".so")
            ++n;
    return n;
}

namespace {

/**
 * Move this thread to the next CPU it may run on.  On a shared host a
 * vCPU runs up to 1.5x slower while its sibling hyperthread is busy,
 * and the scheduler can leave a lone thread on such a vCPU for a whole
 * run; rotating passes over every allowed CPU lets each request's
 * best-of-N cost see all of them.  Best effort: a failed call leaves
 * the thread where it is.
 */
void
rotateCpu()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> allowed;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (::sched_getaffinity(0, sizeof set, &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    allowed.push_back(c);
        return allowed;
    }();
    static size_t next = 0;
    if (cpus.size() < 2)
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[next++ % cpus.size()], &one);
    ::sched_setaffinity(0, sizeof one, &one);
}

} // namespace

double
runPass(QueryService &service, const std::vector<std::string> &lines,
        std::vector<double> &latency_ms,
        std::vector<std::string> &responses)
{
    rotateCpu();
    responses.resize(lines.size());
    auto t0 = Clock::now();
    for (size_t i = 0; i < lines.size(); ++i) {
        auto a = Clock::now();
        Request request = parseRequestLine(lines[i], i + 1);
        responses[i] = runRequest(service, request);
        latency_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - a)
                .count());
    }
    return secondsSince(t0);
}

std::string
responseBody(const std::string &response)
{
    size_t sp = response.find(' ');
    sp = sp == std::string::npos ? sp : response.find(' ', sp + 1);
    return sp == std::string::npos ? "" : response.substr(sp + 1);
}

std::string
deterministicPrefix(const std::string &response)
{
    size_t ns = response.find("_ns=");
    if (ns == std::string::npos)
        return response;
    size_t sp = response.rfind(' ', ns);
    return response.substr(0, sp == std::string::npos ? 0 : sp);
}

double
fieldValue(const std::string &response, const std::string &key)
{
    size_t pos = response.find(" " + key + "=");
    if (pos == std::string::npos)
        return -1;
    return std::strtod(response.c_str() + pos + key.size() + 2, nullptr);
}

namespace {

/** Parse the "(a, b, ...)" vector after "<key>="; false if absent. */
bool
vectorField(const std::string &body, const std::string &key, IVec &out)
{
    size_t pos = body.find(key + "=(");
    if (pos == std::string::npos)
        return false;
    size_t open = pos + key.size() + 1;
    size_t close = body.find(')', open);
    if (close == std::string::npos)
        return false;
    std::vector<int64_t> coords;
    std::stringstream ss(body.substr(open + 1, close - open - 1));
    std::string part;
    while (std::getline(ss, part, ','))
        coords.push_back(std::strtoll(part.c_str(), nullptr, 10));
    out = IVec(coords);
    return !coords.empty();
}

} // namespace

std::string
Checker::check(const std::string &line, const std::string &response)
{
    if (response.rfind("answer ", 0) != 0)
        return "'" + line + "' drew '" + response + "'";
    std::string body = responseBody(response);
    std::string fixed = deterministicPrefix(body);
    auto it = _bodies.find(line);
    if (it != _bodies.end())
        return it->second == fixed
                   ? ""
                   : "'" + line + "' changed its answer to '" + body + "'";
    Request request = parseRequestLine(line, 1);
    if (!request.error.empty())
        return "'" + line + "' does not parse: " + request.error;
    std::string verdict = request.native || request.tune
                              ? checkKernel(request, body)
                              : checkSolve(request, body);
    if (verdict.empty())
        _bodies.emplace(line, fixed);
    else
        verdict = "'" + line + "' -> '" + body + "': " + verdict;
    return verdict;
}

std::string
Checker::checkSolve(const Request &request, const std::string &body)
{
    IVec best;
    if (!vectorField(body, "best", best))
        return "no best=";
    double value = fieldValue(body, "value");
    double initial = fieldValue(body, "initial");
    UovOracle oracle{Stencil(request.deps)};
    if (!oracle.isUov(best))
        return "best is not a UOV of the stencil as presented";
    int64_t objective = 0;
    if (request.objective == SearchObjective::ShortestVector) {
        for (size_t k = 0; k < best.dim(); ++k)
            objective += best[k] * best[k];
    } else {
        objective = storageCellCount(
            best, Polyhedron::box(*request.isg_lo, *request.isg_hi));
    }
    if (static_cast<double>(objective) != value)
        return "value is not the objective of best (" +
               std::to_string(objective) + ")";
    if (value > initial)
        return "value is worse than the ov_o seed";
    return "";
}

std::string
Checker::checkKernel(const Request &request, const std::string &body)
{
    std::string verb = request.native ? "native " : "tune ";
    if (body.rfind(verb, 0) != 0)
        return "not a " + verb + "answer";
    if (body.find(" verified=ok") == std::string::npos)
        return "no verified=ok";
    IVec ov;
    if (vectorField(body, "uov", ov)) {
        UovOracle oracle{Stencil(request.deps)};
        if (!oracle.isUov(ov))
            return "uov is not a UOV of the stencil";
    } else if (body.find(" uov=none") == std::string::npos) {
        return "no uov=";
    }
    return "";
}

} // namespace perfbench
