/**
 * @file
 * Interactive UOV explorer: pass a stencil (and optionally ISG
 * bounds) on the command line; get the DONE/DEAD picture, both search
 * objectives, certificates, and the storage mapping.
 *
 *   $ ./uov_explorer 1,-2 1,-1 1,0 1,1 1,2
 *   $ ./uov_explorer --bounds 64x4096 1,0 0,1 1,1
 */

#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/done_dead.h"
#include "core/search.h"
#include "core/storage_count.h"
#include "core/uov.h"
#include "mapping/storage_mapping.h"
#include "support/error.h"
#include "support/flags.h"
#include "support/lex.h"

using namespace uov;

int
main(int argc, char **argv)
{
    std::vector<IVec> deps;
    int64_t bound_n = -1, bound_m = -1;
    std::vector<std::string> words;

    const std::string prog = argv[0];
    FlagTable flags("uov_explorer",
                    "usage: " + prog +
                        " [--bounds NxM] v1 v2 ...\n"
                        "  each vi is a comma-separated dependence "
                        "vector, e.g. 1,-2\n",
                    15);
    flags.add("--bounds NxM",
              "enables the known-bounds storage objective over the box "
              "(0,0)..(N,M) (2-D only)",
              [&](const std::string &v) {
                  auto x = v.find('x');
                  if (x == std::string::npos)
                      throw FlagError("bad --bounds '" + v +
                                      "', want NxM");
                  if (!parseWholeNumber(v.substr(0, x), bound_n) ||
                      !parseWholeNumber(v.substr(x + 1), bound_m))
                      throw std::invalid_argument(v);
              });
    const std::string example =
        "example: " + prog + " 1,-2 1,-1 1,0 1,1 1,2\n";
    if (std::optional<int> rc = flags.run(argc, argv, &words)) {
        if (*rc == 0) // --help: the usage is on stdout
            std::cout << example;
        return *rc;
    }
    for (const std::string &word : words) {
        std::vector<int64_t> coords;
        if (!parseTuple("[" + word + "]", coords)) {
            std::cerr << "uov_explorer: bad dependence vector '" << word
                      << "'\n";
            return 2;
        }
        deps.emplace_back(coords);
    }
    if (deps.empty()) {
        flags.usage(std::cout);
        std::cout << example
                  << "\nno stencil given; using the paper's 5-point "
                     "stencil.\n\n";
        deps = stencils::fivePoint().deps();
    }

    try {
        Stencil stencil(deps);
        std::cout << "stencil " << stencil.str() << ", dim "
                  << stencil.dim() << "\n\n";

        // DONE/DEAD picture (2-D only).
        if (stencil.dim() == 2) {
            DoneDeadAnalysis dd(stencil);
            IVec q{8, 8};
            std::cout << "DONE ('o') / DEAD ('#') around q = " << q
                      << ":\n";
            for (int64_t x = 2; x <= 9; ++x) {
                std::cout << "  ";
                for (int64_t y = 2; y <= 14; ++y) {
                    IVec p{x, y};
                    char c = '.';
                    if (p == q)
                        c = 'q';
                    else if (dd.isDead(q, p))
                        c = '#';
                    else if (dd.isDone(q, p))
                        c = 'o';
                    std::cout << c << ' ';
                }
                std::cout << "\n";
            }
            std::cout << "\n";
        }

        std::cout << "initial UOV: " << stencil.initialUov() << "\n";

        SearchResult shortest =
            BranchBoundSearch(stencil, SearchObjective::ShortestVector)
                .run();
        std::cout << "shortest UOV: " << shortest.best_uov << "  ("
                  << shortest.stats.str() << ")\n";

        UovOracle oracle(stencil);
        auto cert = oracle.certify(shortest.best_uov);
        if (cert) {
            std::cout << "certificate rows (a_ij, diagonal >= 1):\n";
            for (size_t i = 0; i < cert->rows.size(); ++i) {
                std::cout << "  " << stencil.dep(i) << " : ";
                for (int64_t c : cert->rows[i])
                    std::cout << c << " ";
                std::cout << "\n";
            }
        }

        if (bound_n > 0 && stencil.dim() == 2) {
            Polyhedron isg =
                Polyhedron::box(IVec{0, 0}, IVec{bound_n, bound_m});
            SearchOptions sopts;
            sopts.isg = isg;
            SearchResult storage =
                BranchBoundSearch(stencil,
                                  SearchObjective::BoundedStorage,
                                  sopts)
                    .run();
            std::cout << "\nknown bounds (0,0)..(" << bound_n << ","
                      << bound_m << "):\n";
            std::cout << "  storage-optimal UOV: " << storage.best_uov
                      << " -> " << storage.best_objective
                      << " cells\n";
            std::cout << "  shortest UOV would use "
                      << storageCellCount(shortest.best_uov, isg)
                      << " cells\n";
            StorageMapping sm =
                StorageMapping::create(storage.best_uov, isg);
            std::cout << "  mapping: " << sm.str() << "\n";
        } else if (stencil.dim() == 2) {
            Polyhedron isg =
                Polyhedron::box(IVec{0, 0}, IVec{64, 64});
            StorageMapping sm =
                StorageMapping::create(shortest.best_uov, isg);
            std::cout << "\nmapping over (0,0)..(64,64): " << sm.str()
                      << "\n";
        }
    } catch (const UovError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
