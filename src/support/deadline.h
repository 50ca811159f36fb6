/**
 * @file
 * Steady-clock deadlines and cooperative cancellation.
 *
 * A Deadline is a point on the monotonic clock (or "never"); long
 * loops poll expired() and degrade gracefully instead of running
 * unbounded.  A CancelToken is a tiny shared flag for cancelling work
 * from another thread (the service watchdog, tests).  Both are
 * header-only and allocation-free except for the token's shared state.
 */

#ifndef UOV_SUPPORT_DEADLINE_H
#define UOV_SUPPORT_DEADLINE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

namespace uov {

/** A monotonic-clock deadline, possibly unbounded. */
class Deadline
{
  public:
    using Clock = std::chrono::steady_clock;

    /** Default-constructed deadlines never expire. */
    Deadline() = default;

    /** A deadline that never expires. */
    static Deadline
    never()
    {
        return Deadline();
    }

    /**
     * A deadline @p ms milliseconds from now.  Negative values mean
     * unbounded (the CLI's "no deadline" sentinel); zero expires
     * immediately, which is legal and useful -- it forces the anytime
     * paths to return their seed incumbent deterministically.  A
     * deadline past the clock's range never expires.
     */
    static Deadline
    afterMillis(int64_t ms)
    {
        using std::chrono::milliseconds;
        if (ms < 0)
            return never();
        auto now = Clock::now();
        auto headroom = std::chrono::duration_cast<milliseconds>(
            Clock::time_point::max() - now);
        if (milliseconds(ms) >= headroom)
            return never();
        return at(now + milliseconds(ms));
    }

    /** A deadline at an explicit clock point. */
    static Deadline
    at(Clock::time_point when)
    {
        Deadline d;
        d._bounded = true;
        d._at = when;
        return d;
    }

    /** Whether this deadline can expire at all. */
    bool
    bounded() const
    {
        return _bounded;
    }

    /** Whether the deadline has passed (never true if unbounded). */
    bool
    expired() const
    {
        return _bounded && Clock::now() >= _at;
    }

    /**
     * Milliseconds until expiry, clamped to >= 0.  Unbounded deadlines
     * report INT64_MAX.
     */
    int64_t
    remainingMillis() const
    {
        if (!_bounded)
            return INT64_MAX;
        auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            _at - Clock::now());
        return left.count() < 0 ? 0 : left.count();
    }

  private:
    bool _bounded = false;
    Clock::time_point _at{};
};

/**
 * Shared cooperative-cancellation flag.  Copies observe the same
 * state; cancellation is sticky.  Default-constructed tokens are
 * never cancelled and allocate nothing.
 */
class CancelToken
{
  public:
    CancelToken() = default;

    /** A token that can actually be cancelled. */
    static CancelToken
    make()
    {
        CancelToken t;
        t._flag = std::make_shared<std::atomic<bool>>(false);
        return t;
    }

    /** Request cancellation; no-op on an inert token. */
    void
    requestCancel() const
    {
        if (_flag)
            _flag->store(true, std::memory_order_relaxed);
    }

    /** Whether cancellation has been requested. */
    bool
    cancelled() const
    {
        return _flag && _flag->load(std::memory_order_relaxed);
    }

  private:
    std::shared_ptr<std::atomic<bool>> _flag;
};

} // namespace uov

#endif // UOV_SUPPORT_DEADLINE_H
