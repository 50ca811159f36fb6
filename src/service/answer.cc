#include "service/answer.h"

#include "core/uov.h"
#include "geometry/polyhedron.h"
#include "service/canonical.h"
#include "support/error.h"
#include "telemetry/trace_context.h"

namespace uov {
namespace service {

size_t
ServiceAnswer::byteSize() const
{
    size_t bytes = sizeof(ServiceAnswer);
    bytes += best_uov.dim() * sizeof(int64_t);
    bytes += degraded_reason.size();
    for (const auto &row : cert)
        bytes += sizeof(row) + row.size() * sizeof(int64_t);
    return bytes;
}

std::string
ServiceAnswer::str() const
{
    TextWriter out;
    out << "best=" << best_uov << " value=" << best_objective
        << " initial=" << initial_objective
        << " canon=" << canonical_deps;
    if (degraded)
        out << " degraded=" << degraded_reason;
    out << " cert=";
    for (size_t i = 0; i < cert.size(); ++i) {
        if (i)
            out << '|';
        for (size_t j = 0; j < cert[i].size(); ++j) {
            if (j)
                out << ',';
            out << cert[i][j];
        }
    }
    return out.take();
}

ServiceAnswer
solveCanonical(const Stencil &canonical, SearchObjective objective,
               const std::optional<IVec> &isg_lo,
               const std::optional<IVec> &isg_hi,
               const SearchBudget &budget)
{
    SearchOptions options;
    options.budget = budget;
    if (objective == SearchObjective::BoundedStorage) {
        UOV_REQUIRE(isg_lo.has_value() && isg_hi.has_value(),
                    "storage objective requires ISG bounds");
        options.isg = Polyhedron::box(*isg_lo, *isg_hi);
    }
    BranchBoundSearch search(canonical, objective, options);
    SearchResult result = search.run();
    telemetry::noteSearch(result.stats.visited);

    ServiceAnswer answer;
    answer.best_uov = result.best_uov;
    answer.best_objective = result.best_objective;
    answer.initial_objective = result.initial_objective;
    answer.canonical_deps = canonical.size();
    answer.degraded = result.degraded();
    answer.degraded_reason = result.degraded_reason;

    // Certification shares the search's cone memo: membership
    // subproblems proved during run()'s verification pass are reused.
    UovOracle oracle(search.memo());
    auto cert = oracle.certify(result.best_uov);
    UOV_CHECK(cert.has_value(),
              "search result " << result.best_uov.str()
                               << " failed certification over "
                               << canonical.str());
    answer.cert = std::move(cert->rows);
    return answer;
}

ServiceAnswer
solveDirect(const Stencil &stencil, SearchObjective objective,
            const std::optional<IVec> &isg_lo,
            const std::optional<IVec> &isg_hi,
            const SearchBudget &budget)
{
    return solveCanonical(canonicalizeStencil(stencil), objective,
                          isg_lo, isg_hi, budget);
}

} // namespace service
} // namespace uov
