#include "geometry/lattice.h"

#include "support/checked.h"
#include "support/error.h"

namespace uov {

ExtGcd
extGcd(int64_t a, int64_t b)
{
    // Iterative extended Euclid on (a, b); fix signs afterwards so the
    // reported gcd is non-negative.
    int64_t old_r = a, r = b;
    int64_t old_x = 1, x = 0;
    int64_t old_y = 0, y = 1;
    while (r != 0) {
        int64_t q = old_r / r;
        int64_t tmp;
        tmp = checkedSub(old_r, checkedMul(q, r));
        old_r = r;
        r = tmp;
        tmp = checkedSub(old_x, checkedMul(q, x));
        old_x = x;
        x = tmp;
        tmp = checkedSub(old_y, checkedMul(q, y));
        old_y = y;
        y = tmp;
    }
    if (old_r < 0) {
        old_r = checkedNeg(old_r);
        old_x = checkedNeg(old_x);
        old_y = checkedNeg(old_y);
    }
    return ExtGcd{old_r, old_x, old_y};
}

IVec
bezoutVector(const IVec &v)
{
    UOV_REQUIRE(!v.isZero(), "bezoutVector of zero vector");
    size_t d = v.dim();
    IVec alpha(d);

    // Fold coordinates left to right: maintain g = gcd(v[0..i]) and a
    // certificate alpha[0..i] with alpha . v[0..i] == g.
    int64_t g = 0;
    for (size_t i = 0; i < d; ++i) {
        if (v[i] == 0)
            continue;
        if (g == 0) {
            // First nonzero coordinate.
            g = checkedAbs(v[i]);
            alpha[i] = v[i] > 0 ? 1 : -1;
            continue;
        }
        ExtGcd e = extGcd(g, v[i]);
        // New certificate: (alpha * e.x) for seen coords, e.y here.
        for (size_t j = 0; j < i; ++j)
            alpha[j] = checkedMul(alpha[j], e.x);
        alpha[i] = e.y;
        g = e.g;
    }
    UOV_CHECK(alpha.dot(v) == v.content(), "bezoutVector certificate");
    return alpha;
}

IMatrix
unimodularCompletion(const IVec &v)
{
    UOV_REQUIRE(v.content() == 1,
                "unimodularCompletion requires a primitive vector, got "
                    << v.str() << " with content " << v.content());
    size_t d = v.dim();
    IMatrix u = IMatrix::identity(d);
    IVec w = v;

    // Zero out w[d-1] ... w[1] using 2x2 unimodular row transforms on
    // (U, w).  Invariant: U * v == w.  Each transform rewrites rows i-1
    // and i of U in place, in the operation order of the full product
    // T * U it stands for, so U -- and any overflow error -- is exactly
    // that product's.  The storage objective projects on rows 1..d-1,
    // so these rows decide search answers.
    for (size_t i = d - 1; i >= 1; --i) {
        int64_t a = w[i - 1];
        int64_t b = w[i];
        if (b == 0)
            continue;
        ExtGcd e = extGcd(a, b);
        UOV_CHECK(e.g > 0, "gcd positive");
        int64_t p = e.x, q = e.y;
        int64_t r = checkedNeg(b / e.g);
        int64_t s = a / e.g;
        // [p q; r s] has determinant p*s - q*r = (x*a + y*b)/g = 1.
        int64_t *top = &u(i - 1, 0); // rows are contiguous (row-major)
        int64_t *bot = &u(i, 0);
        const IVec old_top_row(top, d), old_bot_row(bot, d);
        const int64_t *old_top = old_top_row.data();
        const int64_t *old_bot = old_bot_row.data();
        for (size_t c = 0; c < d; ++c)
            top[c] = checkedMul(p, old_top[c]);
        for (size_t c = 0; c < d; ++c)
            top[c] = checkedAdd(top[c], checkedMul(q, old_bot[c]));
        for (size_t c = 0; c < d; ++c)
            bot[c] = checkedMul(r, old_top[c]);
        for (size_t c = 0; c < d; ++c)
            bot[c] = checkedAdd(bot[c], checkedMul(s, old_bot[c]));
        int64_t new_top = checkedAdd(checkedMul(p, a), checkedMul(q, b));
        int64_t new_bot = checkedAdd(checkedMul(r, a), checkedMul(s, b));
        w[i - 1] = new_top;
        w[i] = new_bot;
        UOV_CHECK(w[i] == 0, "transform zeroes trailing coordinate");
    }

    // After folding everything into w[0], primitivity gives w[0] = +-1.
    if (w[0] == -1) {
        int64_t *top = &u(0, 0);
        for (size_t c = 0; c < d; ++c)
            top[c] = checkedMul(-1, top[c]);
        w[0] = 1;
    }
    UOV_CHECK(w[0] == 1, "completion folds to e0, got " << w.str());
    IVec uv = u * v;
    UOV_CHECK(uv[0] == 1, "U*v == e0 head");
    for (size_t i = 1; i < d; ++i)
        UOV_CHECK(uv[i] == 0, "U*v == e0 tail");
    UOV_CHECK(u.isUnimodular(), "completion is unimodular");
    return u;
}

} // namespace uov
