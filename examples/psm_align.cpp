/**
 * @file
 * Protein alignment demo: score two synthetic amino-acid sequences
 * with every storage variant of the DP kernel, confirm they agree,
 * and compare storage and wall-clock time -- the paper's Section 5
 * workload as an application.
 */

#include <chrono>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "kernels/psm.h"
#include "support/flags.h"
#include "support/lex.h"
#include "support/table.h"

using namespace uov;

namespace {

/** Align two length-@p n proteins with every variant; 0 iff all agree. */
int
align(int64_t n)
{
    std::cout << "aligning two synthetic proteins of length " << n
              << " over the " << kPsmAlphabet
              << "-letter amino-acid alphabet\n\n";

    // What the compiler pipeline says about this DP's storage.
    MappingPlan plan = planStorageMapping(nests::proteinMatching(n, n),
                                          0);
    std::cout << "dependence stencil " << plan.stencil.str()
              << " -> UOV " << plan.search.best_uov << ": each value "
              << "array collapses to one anti-diagonal of "
              << plan.mapping.cellCount() << " cells\n\n";

    PsmConfig cfg;
    cfg.n0 = cfg.n1 = n;
    cfg.tile_i = cfg.tile_j = 256;

    Table t("PSM variants, n0=n1=" + std::to_string(n));
    t.header({"variant", "score", "temp cells", "ms", "tilable"});

    int32_t reference = 0;
    bool first = true, agree = true;
    for (PsmVariant v : allPsmVariants()) {
        VirtualArena arena;
        NativeMem mem;
        auto start = std::chrono::steady_clock::now();
        int32_t score = runPsm(v, cfg, mem, arena);
        auto stop = std::chrono::steady_clock::now();
        double ms =
            std::chrono::duration<double, std::milli>(stop - start)
                .count();
        if (first) {
            reference = score;
            first = false;
        }
        agree = agree && score == reference;
        t.addRow()
            .cell(psmVariantName(v))
            .cell(static_cast<int64_t>(score))
            .cell(formatCount(psmTemporaryStorage(v, n, n)))
            .cell(ms, 1)
            .cell(psmVariantTiled(v)
                      ? "yes"
                      : (v == PsmVariant::StorageOptimized ? "no"
                                                           : "yes"));
    }
    t.print(std::cout);

    std::cout << "\nall variants agree on the score: "
              << (agree ? "yes" : "NO") << "\n";
    std::cout << "natural storage would be "
              << formatCount(psmTemporaryStorage(PsmVariant::Natural, n,
                                                 n))
              << " cells; OV-mapped uses "
              << formatCount(psmTemporaryStorage(PsmVariant::Ov, n, n))
              << " -- and unlike the storage-optimized version it can "
                 "still be tiled.\n";
    return agree ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> words;
    FlagTable flags("psm_align",
                    "usage: psm_align [N]\n"
                    "  aligns two synthetic proteins of length N >= 1 "
                    "(default 1500)\n",
                    0);
    if (std::optional<int> rc = flags.run(argc, argv, &words))
        return *rc;
    int64_t n = 1500;
    for (size_t i = 0; i < words.size(); ++i) {
        if (i > 0 || !parseWholeNumber(words[i], n) || n < 1) {
            std::cerr << "psm_align: want one length N >= 1, got '"
                      << words[i] << "'\n";
            return 2;
        }
    }
    try {
        return align(n);
    } catch (const std::exception &e) {
        // One error line, as uovc gives it: a length whose region scan
        // the planner refuses, or running out of memory.
        std::cerr << "psm_align: " << e.what() << "\n";
        return 1;
    }
}
