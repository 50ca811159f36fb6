/**
 * @file
 * uovfuzz: the differential fuzzing driver.
 *
 * Cross-checks every oracle in the system against independent
 * re-implementations on randomly generated (seeded, reproducible)
 * stencils, nests, ISG boxes, and legal schedules.  Failures are
 * shrunk to minimal repros and printed as paste-able nest text.
 *
 *   $ ./uovfuzz --iters 500 --seed 1            # the CI smoke run
 *   $ ./uovfuzz --iters 100000 --seed $RANDOM   # a local soak
 *   $ ./uovfuzz --oracle mapping --iters 2000   # one oracle family
 *   $ ./uovfuzz --replay 1234567                # one exact case
 *   $ ./uovfuzz --corpus examples/corpus        # replay the corpus
 *
 * Exit status: 0 when every cross-check agreed, 1 on discrepancies,
 * 2 on usage errors.
 */

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/fuzzer.h"
#include "support/flags.h"
#include "support/version.h"

using namespace uov;
using namespace uov::fuzz;

int
main(int argc, char **argv)
{
    FuzzOptions opt;
    opt.log = &std::cerr;
    std::vector<uint64_t> replays;

    std::string names;
    for (OracleKind k : kAllOracleKinds)
        names += std::string(names.empty() ? "" : "|") + oracleName(k);
    FlagTable flags("uovfuzz",
                    std::string("uovfuzz ") + buildVersion() +
                        " -- differential fuzzing driver\n"
                        "usage: uovfuzz [options]\n",
                    18);
    flags.number("--seed N",
                 "master seed for the random sweep (default 1)", opt.seed)
        .number("--iters N", "random cases to run (default 100)", opt.iters)
        .add("--oracle NAME", names + "\n(default: all)",
             [&](const std::string &name) {
                 opt.only = parseOracleName(name);
                 if (!opt.only && name != "all")
                     throw FlagError("unknown oracle '" + name + "'");
             })
        .add("--shrink", "minimize failing cases (default)",
             [&](auto &) { opt.shrink = true; })
        .add("--no-shrink", "report failures unminimized",
             [&](auto &) { opt.shrink = false; })
        .add("--replay SEED",
             "regenerate one case from its seed and run\n"
             "the chosen oracle(s) on it",
             [&](const std::string &v) {
                 if (!parseWholeNumber(v, replays.emplace_back()))
                     throw std::invalid_argument(v);
             })
        .add("--corpus DIR", "replay every *.nest file in DIR first",
             [&](const std::string &dir) {
                 std::vector<std::string> files;
                 try {
                     for (const auto &e :
                          std::filesystem::directory_iterator(dir)) {
                         if (e.path().extension() == ".nest")
                             files.push_back(e.path().string());
                     }
                 } catch (const std::filesystem::filesystem_error &e) {
                     throw FlagError(e.what());
                 }
                 if (files.empty())
                     throw FlagError("no *.nest files in '" + dir + "'");
                 std::sort(files.begin(), files.end());
                 opt.corpus_files.insert(opt.corpus_files.end(),
                                         files.begin(), files.end());
             })
        .add("--corpus-file F", "replay one nest file",
             [&](const std::string &f) { opt.corpus_files.push_back(f); })
        .add("--quiet", "suppress progress output",
             [&](auto &) { opt.log = nullptr; });
    if (std::optional<int> rc = flags.run(argc, argv))
        return *rc;

    // --replay: run the selected oracle(s) on exact regenerated
    // cases instead of a sweep.
    if (!replays.empty()) {
        int bad = 0;
        for (uint64_t seed : replays) {
            FuzzCase c = makeCase(seed, opt.gen);
            std::cout << "case " << c.str() << "\n";
            for (OracleKind k : kAllOracleKinds) {
                if (opt.only && *opt.only != k)
                    continue;
                auto v = runOracle(k, c);
                std::cout << "  " << oracleName(k) << ": "
                          << (v ? *v : "ok") << "\n";
                if (v)
                    ++bad;
            }
        }
        return bad ? 1 : 0;
    }

    FuzzReport report = runFuzzer(opt);
    std::cout << "uovfuzz: " << report.str() << "\n";
    for (const auto &f : report.failures)
        std::cout << f.repro;
    return report.ok() ? 0 : 1;
}
