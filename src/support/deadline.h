/**
 * @file
 * Steady-clock deadlines.
 *
 * A Deadline is a point on the monotonic clock (or "never"); long
 * loops poll expired() and degrade gracefully instead of running
 * unbounded.  Header-only and allocation-free.
 */

#ifndef UOV_SUPPORT_DEADLINE_H
#define UOV_SUPPORT_DEADLINE_H

#include <chrono>
#include <cstdint>

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

} // namespace uov

#endif // UOV_SUPPORT_DEADLINE_H
