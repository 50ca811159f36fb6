#include "geometry/ivec.h"

#include "support/checked.h"
#include "support/error.h"

namespace uov {

int64_t
IVec::operator[](size_t i) const
{
    UOV_CHECK(i < _size, "IVec index " << i << " out of range "
                                       << _size);
    return data()[i];
}

int64_t &
IVec::operator[](size_t i)
{
    UOV_CHECK(i < _size, "IVec index " << i << " out of range "
                                       << _size);
    return data()[i];
}

IVec
IVec::operator+(const IVec &o) const
{
    UOV_CHECK(dim() == o.dim(), "dimension mismatch " << dim() << " vs "
                                                      << o.dim());
    IVec r(dim());
    const int64_t *a = data(), *b = o.data();
    int64_t *out = r.data();
    for (size_t i = 0; i < _size; ++i)
        out[i] = checkedAdd(a[i], b[i]);
    return r;
}

IVec
IVec::operator-(const IVec &o) const
{
    UOV_CHECK(dim() == o.dim(), "dimension mismatch " << dim() << " vs "
                                                      << o.dim());
    IVec r(dim());
    const int64_t *a = data(), *b = o.data();
    int64_t *out = r.data();
    for (size_t i = 0; i < _size; ++i)
        out[i] = checkedSub(a[i], b[i]);
    return r;
}

IVec
IVec::operator-() const
{
    IVec r(dim());
    const int64_t *a = data();
    int64_t *out = r.data();
    for (size_t i = 0; i < _size; ++i)
        out[i] = checkedNeg(a[i]);
    return r;
}

IVec
IVec::operator*(int64_t s) const
{
    IVec r(dim());
    const int64_t *a = data();
    int64_t *out = r.data();
    for (size_t i = 0; i < _size; ++i)
        out[i] = checkedMul(a[i], s);
    return r;
}

IVec &
IVec::operator+=(const IVec &o)
{
    UOV_CHECK(dim() == o.dim(), "dimension mismatch " << dim() << " vs "
                                                      << o.dim());
    int64_t *a = data();
    const int64_t *b = o.data();
    for (size_t i = 0; i < _size; ++i)
        a[i] = checkedAdd(a[i], b[i]);
    return *this;
}

bool
IVec::operator<(const IVec &o) const
{
    UOV_CHECK(dim() == o.dim(), "dimension mismatch in comparison");
    const int64_t *a = data(), *b = o.data();
    for (size_t i = 0; i < _size; ++i) {
        if (a[i] != b[i])
            return a[i] < b[i];
    }
    return false;
}

bool
IVec::isZero() const
{
    const int64_t *a = data();
    for (size_t i = 0; i < _size; ++i)
        if (a[i] != 0)
            return false;
    return true;
}

bool
IVec::isLexPositive() const
{
    const int64_t *a = data();
    for (size_t i = 0; i < _size; ++i) {
        if (a[i] > 0)
            return true;
        if (a[i] < 0)
            return false;
    }
    return false;
}

int64_t
IVec::dot(const IVec &o) const
{
    UOV_CHECK(dim() == o.dim(), "dimension mismatch in dot product");
    const int64_t *a = data(), *b = o.data();
    int64_t acc = 0;
    for (size_t i = 0; i < _size; ++i)
        acc = checkedAdd(acc, checkedMul(a[i], b[i]));
    return acc;
}

int64_t
IVec::normSquared() const
{
    return dot(*this);
}

int64_t
IVec::normInf() const
{
    const int64_t *a = data();
    int64_t m = 0;
    for (size_t i = 0; i < _size; ++i) {
        int64_t v = checkedAbs(a[i]);
        if (v > m)
            m = v;
    }
    return m;
}

int64_t
IVec::content() const
{
    const int64_t *a = data();
    int64_t g = 0;
    for (size_t i = 0; i < _size; ++i)
        g = gcd64(g, a[i]);
    return g;
}

IVec
IVec::dividedBy(int64_t s) const
{
    UOV_CHECK(s != 0, "division by zero");
    IVec r(dim());
    const int64_t *a = data();
    int64_t *out = r.data();
    for (size_t i = 0; i < _size; ++i) {
        UOV_CHECK(a[i] % s == 0,
                  s << " does not divide coordinate " << a[i]);
        out[i] = a[i] / s;
    }
    return r;
}

std::string
IVec::str() const
{
    TextWriter out;
    out << *this;
    return out.take();
}

size_t
IVec::hash() const
{
    // FNV-1a over the coordinate bytes; stable and fast for short vectors.
    size_t h = 1469598103934665603ULL;
    const int64_t *a = data();
    for (size_t i = 0; i < _size; ++i) {
        auto u = static_cast<uint64_t>(a[i]);
        for (int b = 0; b < 8; ++b) {
            h ^= (u >> (8 * b)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
    return h;
}

std::ostream &
operator<<(std::ostream &os, const IVec &v)
{
    return os << v.str();
}

TextWriter &
TextWriter::operator<<(const IVec &v)
{
    const int64_t *a = v.data();
    *this << '(';
    for (size_t i = 0; i < v.dim(); ++i) {
        if (i)
            *this << ", ";
        *this << a[i];
    }
    return *this << ')';
}

} // namespace uov
