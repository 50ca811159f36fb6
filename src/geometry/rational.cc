#include "geometry/rational.h"

#include "support/checked.h"
#include "support/error.h"

namespace uov {

Rational::Rational(int64_t n, int64_t d) : _num(n), _den(d)
{
    UOV_REQUIRE(d != 0, "rational with zero denominator");
    normalize();
}

void
Rational::normalize()
{
    if (_den < 0) {
        _num = checkedNeg(_num);
        _den = checkedNeg(_den);
    }
    int64_t g = gcd64(_num, _den);
    if (g > 1) {
        _num /= g;
        _den /= g;
    }
    if (_num == 0)
        _den = 1;
}

Rational
Rational::operator+(const Rational &o) const
{
    // a/b + c/d = (a*d + c*b) / (b*d); reduce via gcd(b, d) first to
    // keep intermediates small.
    int64_t g = gcd64(_den, o._den);
    int64_t bg = _den / g;
    int64_t dg = o._den / g;
    int64_t num = checkedAdd(checkedMul(_num, dg), checkedMul(o._num, bg));
    int64_t den = checkedMul(checkedMul(bg, g), dg);
    return Rational(num, den);
}

Rational
Rational::operator-(const Rational &o) const
{
    return *this + (-o);
}

Rational
Rational::operator*(const Rational &o) const
{
    // Cross-reduce before multiplying.
    int64_t g1 = gcd64(_num, o._den);
    int64_t g2 = gcd64(o._num, _den);
    int64_t num = checkedMul(_num / g1, o._num / g2);
    int64_t den = checkedMul(_den / g2, o._den / g1);
    return Rational(num, den);
}

Rational
Rational::operator/(const Rational &o) const
{
    UOV_REQUIRE(o._num != 0, "rational division by zero");
    return *this * Rational(o._den, o._num);
}

Rational
Rational::operator-() const
{
    Rational r;
    r._num = checkedNeg(_num);
    r._den = _den;
    return r;
}

bool
Rational::operator<(const Rational &o) const
{
    // a/b < c/d  <=>  a*d < c*b  (b, d > 0)
    return checkedMul(_num, o._den) < checkedMul(o._num, _den);
}

int64_t
Rational::floor() const
{
    return floorDiv(_num, _den);
}

int64_t
Rational::ceil() const
{
    return ceilDiv(_num, _den);
}

} // namespace uov
