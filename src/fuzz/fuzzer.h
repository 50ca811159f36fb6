/**
 * @file
 * The differential fuzzing harness: corpus replay + seeded random
 * sweep over the nine oracle families, with automatic shrinking of
 * anything that fails.
 *
 * One harness serves three masters: the uovfuzz CLI (soak runs and
 * bug triage), the fixed-seed ctest smoke suite (CI), and unit tests
 * (which inject intentionally broken oracles to prove failures are
 * caught and shrunk).  Determinism contract: a (seed, iters, oracle)
 * triple always generates the same case sequence, and any failing
 * case is reproducible from its printed case seed alone.
 */

#ifndef UOV_FUZZ_FUZZER_H
#define UOV_FUZZ_FUZZER_H

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/oracles.h"
#include "fuzz/shrinker.h"

namespace uov {
namespace fuzz {

/** The nine differential oracle families. */
enum class OracleKind
{
    Membership, ///< isUov vs DONE/DEAD vs brute force vs certificates
    Search,     ///< branch-and-bound vs exhaustive vs ablations
    Mapping,    ///< storage mappings executed under legal schedules
    Streaming,  ///< fused simulation vs record-then-replay vs direct
    Service,    ///< concurrent cached QueryService vs direct search
    Fault,      ///< batches under fail points and random deadlines
    Codegen,    ///< JIT-compiled kernels vs the interpreter oracle
    Tune,       ///< autotuner legality/determinism/anytime contracts
    Durability, ///< store crash/replay prefixes + shed-answer legality
};

/** Number of OracleKind values (the random sweep cycles them all). */
constexpr size_t kOracleKindCount = 9;

/** Every kind in sweep order (--replay, --oracle, parseOracleName). */
constexpr OracleKind kAllOracleKinds[kOracleKindCount] = {
    OracleKind::Membership, OracleKind::Search,  OracleKind::Mapping,
    OracleKind::Streaming,  OracleKind::Service, OracleKind::Fault,
    OracleKind::Codegen,    OracleKind::Tune,    OracleKind::Durability,
};

const char *oracleName(OracleKind kind);

/** Parse "membership" | "search" | "mapping" | "streaming" |
 *  "service" | "fault" | "codegen" | "tune" | "durability". */
std::optional<OracleKind> parseOracleName(const std::string &name);

/** Harness configuration. */
struct FuzzOptions
{
    uint64_t seed = 1;
    uint64_t iters = 100;
    /** Restrict to one oracle; nullopt cycles through all nine. */
    std::optional<OracleKind> only;
    bool shrink = true;
    GenOptions gen;
    /** Nest files replayed (membership+search+mapping) before the
     *  random sweep -- the seed corpus. */
    std::vector<std::string> corpus_files;
    /** Progress/diagnostic stream (nullptr = silent). */
    std::ostream *log = nullptr;
};

/** One caught discrepancy, shrunk and ready to paste into a report. */
struct FuzzFailure
{
    std::string oracle;
    uint64_t case_seed = 0;     ///< 0 for corpus-file cases
    std::string source;         ///< "random" or the corpus path
    std::string detail;         ///< the oracle's discrepancy text
    FuzzCase shrunk;            ///< minimized case (== original when
                                ///< shrinking is off or inapplicable)
    ShrinkStats shrink_stats;
    std::string repro;          ///< paste-able repro block
};

/** Outcome of one harness run. */
struct FuzzReport
{
    uint64_t cases = 0;         ///< inputs generated (corpus + random)
    uint64_t corpus_cases = 0;  ///< corpus inputs replayed
    uint64_t oracle_runs = 0;   ///< oracle invocations
    std::vector<FuzzFailure> failures;

    bool ok() const { return failures.empty(); }
    std::string str() const;
};

/**
 * Replay the corpus, then sweep @p iters random cases.  Never throws
 * on oracle failure -- discrepancies (including exceptions escaping
 * an oracle) become FuzzFailure entries.
 */
FuzzReport runFuzzer(const FuzzOptions &options);

/**
 * Run one oracle on one stencil-shaped case (the harness's inner
 * step, exposed for unit tests and --replay).  Streaming ignores the
 * case body and uses only its seed.  Exceptions are converted into a
 * verdict.
 */
OracleVerdict runOracle(OracleKind kind, const FuzzCase &c);

} // namespace fuzz
} // namespace uov

#endif // UOV_FUZZ_FUZZER_H
