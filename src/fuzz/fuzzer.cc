#include "fuzz/fuzzer.h"

#include <fstream>
#include <iterator>
#include <ostream>
#include <sstream>

#include "driver/nest_parser.h"
#include "support/error.h"

namespace uov {
namespace fuzz {

const char *
oracleName(OracleKind kind)
{
    // In OracleKind's declaration order.
    static constexpr const char *kNames[] = {
        "membership", "search", "mapping", "streaming", "service",
        "fault",      "codegen", "tune",   "durability"};
    static_assert(std::size(kNames) == kOracleKindCount);
    auto i = static_cast<size_t>(kind);
    UOV_CHECK(i < kOracleKindCount, "bad oracle kind " << i);
    return kNames[i];
}

std::optional<OracleKind>
parseOracleName(const std::string &name)
{
    for (OracleKind k : kAllOracleKinds) {
        if (name == oracleName(k))
            return k;
    }
    return std::nullopt;
}

OracleVerdict
runOracle(OracleKind kind, const FuzzCase &c)
{
    try {
        switch (kind) {
          case OracleKind::Membership:
            return checkMembership(c);
          case OracleKind::Search:
            return checkSearch(c);
          case OracleKind::Mapping:
            return checkMapping(c);
          case OracleKind::Streaming:
            return checkStreaming(c.seed);
          case OracleKind::Service:
            return checkService(c);
          case OracleKind::Fault:
            return checkFault(c);
          case OracleKind::Codegen:
            return checkCodegen(c);
          case OracleKind::Tune:
            return checkTune(c);
          case OracleKind::Durability:
            return checkDurability(c);
        }
        UOV_UNREACHABLE("bad oracle kind");
    } catch (const UovError &e) {
        return std::string("oracle threw: ") + e.what();
    }
}

std::string
FuzzReport::str() const
{
    std::ostringstream oss;
    oss << cases << " cases (" << corpus_cases << " corpus), "
        << oracle_runs << " oracle runs, " << failures.size()
        << " discrepancies";
    return oss.str();
}

namespace {

/** The stencil-shaped oracles a corpus nest exercises. */
constexpr OracleKind kCorpusOracles[] = {
    OracleKind::Membership, OracleKind::Search, OracleKind::Mapping,
    OracleKind::Service, OracleKind::Codegen, OracleKind::Tune,
    OracleKind::Durability};

void
recordFailure(FuzzReport &report, const FuzzOptions &opt,
              OracleKind kind, const FuzzCase &c,
              const std::string &source, const std::string &detail)
{
    FuzzFailure f;
    f.oracle = oracleName(kind);
    f.case_seed = c.seed;
    f.source = source;
    f.detail = detail;
    f.shrunk = c;

    // Shrinking applies to stencil-shaped cases only: the streaming
    // oracle's input is its seed, which has no smaller form.
    if (opt.shrink && kind != OracleKind::Streaming && c.valid()) {
        f.shrunk = shrinkCase(
            c,
            [&](const FuzzCase &m) {
                return runOracle(kind, m).has_value();
            },
            &f.shrink_stats);
        // Re-run on the minimized case so the report shows the
        // discrepancy the repro actually produces.
        if (auto v = runOracle(kind, f.shrunk))
            f.detail = *v;
    }
    f.repro = reproString(f.shrunk, f.oracle, f.detail);

    if (opt.log)
        *opt.log << "FAIL [" << f.oracle << "] " << source << ": "
                 << f.detail << "\n"
                 << f.repro;
    report.failures.push_back(std::move(f));
}

} // namespace

FuzzReport
runFuzzer(const FuzzOptions &opt)
{
    FuzzReport report;

    // Corpus first: known-interesting inputs gate the random sweep,
    // so regressions on them surface immediately and deterministically
    // regardless of --seed.
    for (const auto &path : opt.corpus_files) {
        std::ifstream in(path);
        if (!in.good()) {
            recordFailure(report, opt, OracleKind::Membership,
                          FuzzCase{}, path, "cannot open corpus file");
            continue;
        }
        FuzzCase c;
        try {
            c = caseFromNest(parseNest(in));
        } catch (const UovError &e) {
            // A corpus nest the front end rejects is itself a
            // regression: these files are checked in as parseable.
            recordFailure(report, opt, OracleKind::Membership,
                          FuzzCase{}, path,
                          std::string("corpus nest rejected: ") +
                              e.what());
            continue;
        }
        ++report.cases;
        ++report.corpus_cases;
        for (OracleKind kind : kCorpusOracles) {
            if (opt.only && *opt.only != kind)
                continue;
            ++report.oracle_runs;
            if (auto v = runOracle(kind, c))
                recordFailure(report, opt, kind, c, path, *v);
        }
        if (opt.log)
            *opt.log << "corpus " << path << ": ok\n";
    }

    // Random sweep: case seeds come from their own SplitMix64 stream,
    // so case i is reproducible from the printed seed without
    // replaying cases 0..i-1.
    SplitMix64 seeds(opt.seed);
    for (uint64_t i = 0; i < opt.iters; ++i) {
        uint64_t case_seed = seeds.next();
        OracleKind kind =
            opt.only ? *opt.only : kAllOracleKinds[i % kOracleKindCount];
        FuzzCase c = makeCase(case_seed, opt.gen);
        ++report.cases;
        ++report.oracle_runs;
        if (auto v = runOracle(kind, c))
            recordFailure(report, opt, kind, c, "random", *v);
        if (opt.log && (i + 1) % 100 == 0)
            *opt.log << "..." << (i + 1) << "/" << opt.iters << " ("
                     << report.failures.size() << " failures)\n";
    }
    return report;
}

} // namespace fuzz
} // namespace uov
