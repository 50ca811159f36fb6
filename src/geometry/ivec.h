/**
 * @file
 * IVec: an exact integer vector of small, arbitrary dimension.
 *
 * The workhorse type of the library: dependence distances, occupancy
 * vectors, mapping vectors and iteration points are all IVecs.  All
 * arithmetic is overflow-checked.
 *
 * Representation: coordinates live inline (no heap) up to
 * kInlineCapacity = 4 dimensions -- covering every stencil in the
 * paper, the corpus and the benches -- and spill to one heap array
 * beyond that.  Hot loops (search, cone membership) therefore add,
 * hash and compare IVecs without touching the allocator.  Code that
 * needs raw coordinate access uses data()/dim(); the span stays valid
 * until the vector is mutated in dimension or destroyed.
 */

#ifndef UOV_GEOMETRY_IVEC_H
#define UOV_GEOMETRY_IVEC_H

#include <charconv>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace uov {

/** Exact integer vector in Z^d. */
class IVec
{
  public:
    /** Dimensions held inline without heap allocation. */
    static constexpr size_t kInlineCapacity = 4;

    /** Zero-dimensional vector (useful as a placeholder). */
    IVec() = default;

    /** Zero vector of dimension @p dim. */
    explicit IVec(size_t dim) : _size(dim)
    {
        int64_t *p = alloc(dim);
        for (size_t i = 0; i < dim; ++i)
            p[i] = 0;
    }

    /** From explicit coordinates: IVec{1, -2}. */
    IVec(std::initializer_list<int64_t> coords)
        : IVec(coords.begin(), coords.size())
    {
    }

    /** From a coordinate vector. */
    explicit IVec(const std::vector<int64_t> &coords)
        : IVec(coords.data(), coords.size())
    {
    }

    /** From @p n packed coordinates (flat-map / arena interop). */
    IVec(const int64_t *coords, size_t n) : _size(n)
    {
        int64_t *p = alloc(n);
        if (n)
            std::memcpy(p, coords, n * sizeof(int64_t));
    }

    IVec(const IVec &o) : IVec(o.data(), o._size) {}

    IVec(IVec &&o) noexcept : _size(o._size)
    {
        if (isInline())
            std::memcpy(_buf, o._buf, sizeof(_buf));
        else
            _heap = o._heap;
        o._size = 0;
    }

    IVec &
    operator=(const IVec &o)
    {
        if (this == &o)
            return *this;
        assign(o.data(), o._size);
        return *this;
    }

    IVec &
    operator=(IVec &&o) noexcept
    {
        if (this == &o)
            return *this;
        release();
        _size = o._size;
        if (isInline())
            std::memcpy(_buf, o._buf, sizeof(_buf));
        else
            _heap = o._heap;
        o._size = 0;
        return *this;
    }

    ~IVec() { release(); }

    size_t dim() const { return _size; }

    int64_t operator[](size_t i) const;
    int64_t &operator[](size_t i);

    /** Raw coordinates; valid until resize/destruction. */
    const int64_t *data() const { return isInline() ? _buf : _heap; }
    int64_t *data() { return isInline() ? _buf : _heap; }

    /** Coordinates as a std::vector (materialized copy). */
    std::vector<int64_t>
    coords() const
    {
        return std::vector<int64_t>(data(), data() + _size);
    }

    /** Component-wise arithmetic; dimensions must match. */
    IVec operator+(const IVec &o) const;
    IVec operator-(const IVec &o) const;
    IVec operator-() const;
    IVec operator*(int64_t s) const;
    IVec &operator+=(const IVec &o);

    bool
    operator==(const IVec &o) const
    {
        return _size == o._size &&
               (_size == 0 ||
                std::memcmp(data(), o.data(),
                            _size * sizeof(int64_t)) == 0);
    }
    bool operator!=(const IVec &o) const { return !(*this == o); }

    /** Lexicographic order (for use as map keys and schedule order). */
    bool operator<(const IVec &o) const;

    /** True iff every coordinate is zero. */
    bool isZero() const;

    /**
     * True iff the first nonzero coordinate is positive.
     * A legal dependence distance vector is lexicographically positive.
     */
    bool isLexPositive() const;

    /** Dot product. @pre dimensions match */
    int64_t dot(const IVec &o) const;

    /** Squared Euclidean length (exact). */
    int64_t normSquared() const;

    /** max |coordinate| (Linf norm, exact). */
    int64_t normInf() const;

    /**
     * Content: gcd of all coordinates (non-negative); 0 for the zero
     * vector.  A vector is "prime" (primitive) iff content() == 1.
     */
    int64_t content() const;

    /** True iff content() == 1 (the paper's "prime" OV). */
    bool isPrime() const { return content() == 1; }

    /** Divide every coordinate by @p s. @pre s divides every coordinate */
    IVec dividedBy(int64_t s) const;

    /** "(a, b, c)" rendering. */
    std::string str() const;

    /** Stable hash for unordered containers. */
    size_t hash() const;

  private:
    bool isInline() const { return _size <= kInlineCapacity; }

    /** Set _size-dependent storage; returns the coordinate array. */
    int64_t *
    alloc(size_t n)
    {
        _size = n;
        if (n <= kInlineCapacity)
            return _buf;
        _heap = new int64_t[n];
        return _heap;
    }

    void
    release()
    {
        if (!isInline())
            delete[] _heap;
    }

    void
    assign(const int64_t *coords, size_t n)
    {
        if (n == _size) {
            if (n)
                std::memmove(data(), coords, n * sizeof(int64_t));
            return;
        }
        release();
        int64_t *p = alloc(n);
        if (n)
            std::memcpy(p, coords, n * sizeof(int64_t));
    }

    size_t _size = 0;
    union
    {
        int64_t _buf[kInlineCapacity];
        int64_t *_heap;
    };
};

/** Writes IVec::str(): flags such as std::hex leave it unchanged. */
std::ostream &operator<<(std::ostream &os, const IVec &v);

/**
 * Text built by appending to one std::string, with integers written
 * by std::to_chars: no stream, no locale.  The one writer behind
 * IVec::str(), operator<< on IVec, Stencil::str() and the service's
 * answer line.
 */
class TextWriter
{
  public:
    TextWriter &
    operator<<(std::string_view s)
    {
        _text.append(s);
        return *this;
    }

    TextWriter &
    operator<<(char c)
    {
        _text.push_back(c);
        return *this;
    }

    /** Decimal, as std::ostream writes it without flags. */
    template <std::integral T>
        requires(!std::same_as<T, char> && !std::same_as<T, bool>)
    TextWriter &
    operator<<(T x)
    {
        char buf[24]; // INT64_MIN and UINT64_MAX take 20
        _text.append(buf, std::to_chars(buf, buf + sizeof buf, x).ptr);
        return *this;
    }

    /** "(a, b, c)"; "()" for the zero-dimensional vector. */
    TextWriter &operator<<(const IVec &v);

    /** Move the text out; the writer is left empty. */
    std::string
    take()
    {
        return std::move(_text);
    }

  private:
    std::string _text;
};

/** Hash functor for std::unordered_map<IVec, ...>. */
struct IVecHash
{
    size_t operator()(const IVec &v) const { return v.hash(); }
};

} // namespace uov

#endif // UOV_GEOMETRY_IVEC_H
