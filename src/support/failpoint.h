/**
 * @file
 * Named fail points for deterministic fault injection.
 *
 * Production code marks interesting sites with
 * `failpoint::fire("site_name")`.  Disarmed (the default, and the only
 * state unless `UOV_FAILPOINTS` is set or a test arms one) the call is
 * a single relaxed atomic load.  An armed site draws from its own
 * seeded SplitMix64 stream and, with the configured probability,
 * either throws FailPointError or sleeps a bounded delay -- letting
 * tests and the fault fuzz oracle exercise error-isolation and timeout
 * paths reproducibly.
 *
 * Spec grammar (env var or ScopedFailPoints):
 *
 *     UOV_FAILPOINTS=site:prob[:seed[:throw|delayN]][,site2:...]
 *
 * e.g. `cache_insert:0.5:7:throw,task_start:1:1:delay3`.  The action
 * defaults to throw; delays are clamped to 100 ms so a misconfigured
 * spec cannot wedge a batch.
 */

#ifndef UOV_SUPPORT_FAILPOINT_H
#define UOV_SUPPORT_FAILPOINT_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/error.h"

namespace uov {
namespace failpoint {

/** Thrown by an armed fail point configured with the throw action. */
class FailPointError : public UovError
{
  public:
    using UovError::UovError;
};

/** What an armed fail point does when it fires. */
enum class Action
{
    Throw, ///< throw FailPointError from the marked site
    Delay, ///< sleep delay_ms (clamped) at the marked site
};

/** One site's arming configuration. */
struct Config
{
    double probability = 1.0; ///< chance each hit fires, in [0, 1]
    uint64_t seed = 1;        ///< per-site SplitMix64 stream seed
    Action action = Action::Throw;
    int64_t delay_ms = 1;     ///< Delay action only; clamped to 100
};

/** Process-wide registry of armed fail points. */
class Registry
{
  public:
    /** The singleton; arms itself from UOV_FAILPOINTS on first use. */
    static Registry &instance();

    /** Arm (or re-arm, resetting the stream) one site. */
    void arm(const std::string &site, Config config);

    /** Disarm every site and zero all fire counts. */
    void clear();

    /**
     * Arm sites from a spec string (see file comment for the
     * grammar).  Returns false and leaves @p error describing the
     * problem on a malformed spec; earlier well-formed entries stay
     * armed.
     */
    bool armFromSpec(const std::string &spec,
                     std::string *error = nullptr);

    /**
     * Evaluate one site hit.  Disarmed sites return after one atomic
     * load.  Armed sites draw from their stream and may throw
     * FailPointError or sleep, incrementing the fire counters.
     */
    void hit(const std::string &site);

    /** Times @p site actually fired (threw or delayed). */
    uint64_t fires(const std::string &site) const;

    /** Total fires across all sites since the last clear(). */
    uint64_t
    totalFires() const
    {
        return _total_fires.load(std::memory_order_relaxed);
    }

    /** Currently armed site names, sorted. */
    std::vector<std::string> armedSites() const;

  private:
    Registry();

    struct Point
    {
        Config config;
        uint64_t rng_state = 0;
        uint64_t fire_count = 0;
        bool armed = false;
    };

    mutable std::mutex _mutex;
    std::unordered_map<std::string, Point> _points;
    std::atomic<size_t> _armed_count{0};
    std::atomic<uint64_t> _total_fires{0};
};

/** Mark a fail-point site; near-free unless the site is armed. */
inline void
fire(const char *site)
{
    Registry::instance().hit(site);
}

/**
 * RAII arming for tests and the fuzzer: arms a spec on construction,
 * clears the whole registry (counts included) on destruction so state
 * never leaks across cases.
 */
class ScopedFailPoints
{
  public:
    ScopedFailPoints() = default;

    explicit
    ScopedFailPoints(const std::string &spec)
    {
        std::string error;
        bool ok = Registry::instance().armFromSpec(spec, &error);
        UOV_CHECK(ok, "bad fail-point spec '" << spec << "': " << error);
    }

    ~ScopedFailPoints() { Registry::instance().clear(); }

    ScopedFailPoints(const ScopedFailPoints &) = delete;
    ScopedFailPoints &operator=(const ScopedFailPoints &) = delete;
};

} // namespace failpoint
} // namespace uov

#endif // UOV_SUPPORT_FAILPOINT_H
