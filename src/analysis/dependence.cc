#include "analysis/dependence.h"

#include "support/error.h"

namespace uov {

std::vector<IVec>
DependenceInfo::flowDistances() const
{
    std::vector<IVec> out;
    for (const auto &r : reads)
        if (r.kind == ReadKind::LoopCarriedFlow)
            out.push_back(r.distance);
    return out;
}

DependenceInfo
analyzeDependences(const LoopNest &nest, size_t stmt_index)
{
    const Statement &stmt = nest.statement(stmt_index);
    const Access &write = stmt.write;

    UOV_REQUIRE(write.coef.rows() == write.coef.cols(),
                "write access of " << write.array
                    << " is not a square map; value-based distances "
                       "require an invertible (unimodular) write");
    UOV_REQUIRE(write.coef.isUnimodular(),
                "write access of " << write.array
                    << " has non-unimodular linear part; elements would "
                       "be written zero or multiple times");

    DependenceInfo info;
    info.statement_index = stmt_index;

    for (size_t i = 0; i < stmt.reads.size(); ++i) {
        const Access &read = stmt.reads[i];
        if (read.array != write.array)
            continue; // no dependence on this statement's values

        // Same element: W*(q - d) + ow == R*q + or.  The regular
        // stencil precondition is W == R, giving W*d = ow - or and a
        // constant d = W^{-1}(ow - or).
        UOV_REQUIRE(read.coef == write.coef,
                    "read " << read.str() << " does not share the "
                            << "write's linear part; the dependence "
                               "distance is not constant (not a regular "
                               "stencil)");
        IVec d = write.coef.inverseUnimodular() *
                 (write.offset - read.offset);

        ReadDependence rd;
        rd.read_index = i;
        rd.distance = d;
        rd.kind = d.isLexPositive() ? ReadKind::LoopCarriedFlow
                                    : ReadKind::Import;
        info.reads.push_back(std::move(rd));
    }
    return info;
}

Stencil
extractStencil(const LoopNest &nest, size_t stmt_index)
{
    DependenceInfo info = analyzeDependences(nest, stmt_index);
    auto flows = info.flowDistances();
    UOV_REQUIRE(!flows.empty(),
                "statement " << stmt_index << " of " << nest.name()
                             << " has no loop-carried flow dependences; "
                                "there is nothing to map");
    return Stencil(std::move(flows));
}

} // namespace uov
