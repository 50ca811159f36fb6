#include "ir/program.h"

#include <sstream>

#include "geometry/box.h"
#include "support/error.h"

namespace uov {

IVec
Access::elementAt(const IVec &q) const
{
    return coef * q + offset;
}

std::string
Access::str() const
{
    std::ostringstream oss;
    oss << array << "[M*q + " << offset << "]";
    return oss.str();
}

Access
uniformAccess(std::string array, IVec offset)
{
    size_t d = offset.dim();
    Access a;
    a.array = std::move(array);
    a.coef = IMatrix::identity(d);
    a.offset = std::move(offset);
    return a;
}

LoopNest::LoopNest(std::string name, IVec lo, IVec hi)
    : _name(std::move(name)), _lo(std::move(lo)), _hi(std::move(hi))
{
    UOV_REQUIRE(_lo.dim() == _hi.dim() && _lo.dim() >= 1,
                "loop nest bounds must agree and be non-empty");
    for (size_t c = 0; c < _lo.dim(); ++c)
        UOV_REQUIRE(_lo[c] <= _hi[c],
                    "loop " << c << " has empty range [" << _lo[c] << ", "
                            << _hi[c] << "]");
}

Polyhedron
LoopNest::domain() const
{
    return Polyhedron::box(_lo, _hi);
}

int64_t
LoopNest::tripCount() const
{
    return boxVolume(_lo, _hi);
}

void
LoopNest::addStatement(Statement stmt)
{
    auto check_access = [&](const Access &a) {
        UOV_REQUIRE(a.coef.cols() == depth(),
                    "access " << a.str() << " has " << a.coef.cols()
                              << " columns, nest depth is " << depth());
        UOV_REQUIRE(a.coef.rows() == a.offset.dim(),
                    "access " << a.str() << " offset rank mismatch");
    };
    check_access(stmt.write);
    for (const auto &r : stmt.reads)
        check_access(r);
    UOV_REQUIRE(writerOf(stmt.write.array) == npos,
                "array " << stmt.write.array
                         << " already has a writer; the paper's method "
                            "treats one assignment per array");
    _stmts.push_back(std::move(stmt));
}

const Statement &
LoopNest::statement(size_t i) const
{
    UOV_REQUIRE(i < _stmts.size(), "statement index out of range");
    return _stmts[i];
}

size_t
LoopNest::writerOf(const std::string &array) const
{
    for (size_t i = 0; i < _stmts.size(); ++i)
        if (_stmts[i].write.array == array)
            return i;
    return npos;
}

std::string
LoopNest::str() const
{
    std::ostringstream oss;
    oss << "nest " << _name << " over [" << _lo << ", " << _hi << "], "
        << _stmts.size() << " statement(s)";
    return oss.str();
}

namespace nests {

LoopNest
simpleExample(int64_t n, int64_t m)
{
    LoopNest nest("simple", IVec{1, 1}, IVec{n, m});
    Statement s;
    s.name = "A";
    s.write = uniformAccess("A", IVec{0, 0});
    s.reads = {uniformAccess("A", IVec{-1, 0}),
               uniformAccess("A", IVec{0, -1}),
               uniformAccess("A", IVec{-1, -1})};
    nest.addStatement(std::move(s));
    return nest;
}

LoopNest
fivePointStencil(int64_t t_steps, int64_t len)
{
    LoopNest nest("stencil5", IVec{1, 0}, IVec{t_steps, len - 1});
    Statement s;
    s.name = "B";
    s.write = uniformAccess("B", IVec{0, 0});
    s.reads = {uniformAccess("B", IVec{-1, -2}),
               uniformAccess("B", IVec{-1, -1}),
               uniformAccess("B", IVec{-1, 0}),
               uniformAccess("B", IVec{-1, 1}),
               uniformAccess("B", IVec{-1, 2})};
    nest.addStatement(std::move(s));
    return nest;
}

LoopNest
proteinMatching(int64_t n0, int64_t n1)
{
    LoopNest nest("psm", IVec{1, 1}, IVec{n0, n1});
    Statement s;
    s.name = "D";
    s.write = uniformAccess("D", IVec{0, 0});
    s.reads = {uniformAccess("D", IVec{-1, 0}),
               uniformAccess("D", IVec{0, -1}),
               uniformAccess("D", IVec{-1, -1})};
    nest.addStatement(std::move(s));
    return nest;
}

} // namespace nests

} // namespace uov
