#include "core/uov.h"

#include <algorithm>

#include "geometry/box.h"
#include "support/error.h"

namespace uov {

UovOracle::UovOracle(Stencil stencil) : _cone(std::move(stencil))
{
}

UovOracle::UovOracle(std::shared_ptr<ConeMemo> memo)
    : _cone(std::move(memo))
{
}

bool
UovOracle::isUov(const IVec &w)
{
    UOV_REQUIRE(w.dim() == stencil().dim(),
                "candidate " << w.str() << " has dimension " << w.dim()
                             << " but stencil " << stencil().str()
                             << " has dimension " << stencil().dim());
    if (w.isZero())
        return false;
    for (const auto &v : stencil().deps()) {
        if (!_cone.contains(w - v))
            return false;
    }
    return true;
}

std::optional<UovCertificate>
UovOracle::certify(const IVec &w)
{
    if (!isUov(w))
        return std::nullopt;

    UovCertificate cert;
    cert.uov = w;
    const auto &deps = stencil().deps();
    for (size_t i = 0; i < deps.size(); ++i) {
        auto coeffs = _cone.certificate(w - deps[i]);
        UOV_CHECK(coeffs, "isUov(" << w.str()
                              << ") true but certificate missing for "
                              << (w - deps[i]).str()
                              << " = w - " << deps[i].str()
                              << " over stencil " << stencil().str());
        // Row i is the combination for w with a_ii incremented to
        // account for the v_i we peeled off.
        (*coeffs)[i] += 1;
        cert.rows.push_back(std::move(*coeffs));
    }

    // Verify every row reconstructs w with a positive diagonal.
    for (size_t i = 0; i < cert.rows.size(); ++i) {
        UOV_CHECK(cert.rows[i][i] >= 1,
                  "certificate for " << w.str() << " over stencil "
                      << stencil().str() << ": diagonal coefficient "
                      << cert.rows[i][i] << " for dependence "
                      << deps[i].str() << " must be >= 1");
        IVec sum(stencil().dim());
        for (size_t j = 0; j < deps.size(); ++j)
            sum += deps[j] * cert.rows[i][j];
        UOV_CHECK(sum == w, "certificate row " << i
                                << " for dependence " << deps[i].str()
                                << " over stencil " << stencil().str()
                                << " sums to " << sum.str() << " != "
                                << w.str());
    }
    return cert;
}

GeneralUovOracle::GeneralUovOracle(Stencil schedule_cone,
                                   std::vector<IVec> consumers)
    : _cone(std::move(schedule_cone)), _consumers(std::move(consumers))
{
    UOV_REQUIRE(!_consumers.empty(),
                "array with no consumers needs no storage at all");
    for (const auto &c : _consumers) {
        UOV_REQUIRE(c.dim() == _cone.stencil().dim(),
                    "consumer " << c.str() << " has dimension "
                                << c.dim() << " but schedule cone "
                                << _cone.stencil().str()
                                << " has dimension "
                                << _cone.stencil().dim());
        UOV_REQUIRE(c.isZero() || _cone.stencil().contains(c),
                    "consumer " << c.str()
                        << " is not a schedule dependence; liveness "
                           "would not be schedule-bounded");
    }
}

bool
GeneralUovOracle::isUov(const IVec &w)
{
    UOV_REQUIRE(w.dim() == _cone.stencil().dim(),
                "candidate " << w.str() << " has dimension " << w.dim()
                             << " but schedule cone "
                             << _cone.stencil().str()
                             << " has dimension "
                             << _cone.stencil().dim());
    if (w.isZero())
        return false;
    for (const auto &c : _consumers) {
        if (!_cone.contains(w - c))
            return false;
    }
    return true;
}

IVec
GeneralUovOracle::searchShortest()
{
    IVec initial = initialUov();
    UOV_CHECK(isUov(initial),
              "initial UOV " << initial.str()
                             << " must be safe for schedule cone "
                             << _cone.stencil().str());
    int64_t best_sq = initial.normSquared();
    IVec best = initial;
    scanBall(initial.dim(), best_sq, [&](const IVec &w) {
        if (w.normSquared() < best_sq && isUov(w)) {
            best_sq = w.normSquared();
            best = w;
        }
    });
    return best;
}

bool
ovLegalForLinearSchedule(const IVec &h, const IVec &ov,
                         const Stencil &stencil)
{
    UOV_REQUIRE(h.dim() == stencil.dim() && ov.dim() == stencil.dim(),
                "schedule vector " << h.str() << " and OV " << ov.str()
                                   << " must match stencil "
                                   << stencil.str() << " dimension "
                                   << stencil.dim());
    for (const auto &v : stencil.deps())
        UOV_REQUIRE(h.dot(v) > 0,
                    "h is not a legal schedule vector: h." << v.str()
                        << " <= 0");
    UOV_REQUIRE(!ov.isZero(), "zero occupancy vector for stencil "
                                  << stencil.str());

    int64_t h_ov = h.dot(ov);
    for (const auto &v : stencil.deps()) {
        if (v == ov)
            continue; // the overwriter reads before it writes
        if (h.dot(v) >= h_ov)
            return false;
    }
    return true;
}

std::optional<IVec>
findSharedUov(const std::vector<Stencil> &stencils)
{
    UOV_REQUIRE(!stencils.empty(), "no stencils given");
    size_t d = stencils[0].dim();
    for (const auto &s : stencils)
        UOV_REQUIRE(s.dim() == d, "stencil " << s.str()
                                      << " has dimension " << s.dim()
                                      << " but the first stencil has "
                                      << d);

    std::vector<UovOracle> oracles;
    oracles.reserve(stencils.size());
    int64_t radius_sq = 0;
    for (const auto &s : stencils) {
        oracles.emplace_back(s);
        radius_sq = std::max(radius_sq, s.initialUov().normSquared());
    }

    std::optional<IVec> best;
    int64_t best_sq = INT64_MAX;
    scanBall(d, radius_sq, [&](const IVec &w) {
        int64_t sq = w.normSquared();
        if (sq < best_sq &&
            std::all_of(oracles.begin(), oracles.end(),
                        [&](UovOracle &o) { return o.isUov(w); })) {
            best = w;
            best_sq = sq;
        }
    });
    return best;
}

} // namespace uov
