/**
 * @file
 * Exact rational arithmetic on int64 numerator/denominator.
 *
 * Used for polyhedron vertex enumeration and projection widths, where
 * intersections of integer constraint planes land on rational points.
 */

#ifndef UOV_GEOMETRY_RATIONAL_H
#define UOV_GEOMETRY_RATIONAL_H

#include <cstdint>

namespace uov {

/** Exact rational number; always stored normalized with positive den. */
class Rational
{
  public:
    Rational() : _num(0), _den(1) {}
    Rational(int64_t n) : _num(n), _den(1) {} // NOLINT: implicit by design
    Rational(int64_t n, int64_t d);

    int64_t num() const { return _num; }
    int64_t den() const { return _den; }

    Rational operator+(const Rational &o) const;
    Rational operator-(const Rational &o) const;
    Rational operator*(const Rational &o) const;
    Rational operator/(const Rational &o) const;
    Rational operator-() const;

    bool operator==(const Rational &o) const
    {
        return _num == o._num && _den == o._den;
    }
    bool operator!=(const Rational &o) const { return !(*this == o); }
    bool operator<(const Rational &o) const;
    bool operator<=(const Rational &o) const { return !(o < *this); }
    bool operator>(const Rational &o) const { return o < *this; }
    bool operator>=(const Rational &o) const { return !(*this < o); }

    bool isInteger() const { return _den == 1; }

    /** Largest integer <= value. */
    int64_t floor() const;
    /** Smallest integer >= value. */
    int64_t ceil() const;

    double toDouble() const
    {
        return static_cast<double>(_num) / static_cast<double>(_den);
    }

  private:
    void normalize();

    int64_t _num;
    int64_t _den;
};

} // namespace uov

#endif // UOV_GEOMETRY_RATIONAL_H
