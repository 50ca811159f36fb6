/**
 * @file
 * uovc: the storage-mapping compiler driver.
 *
 * Reads a loop-nest description (file argument or stdin; format in
 * src/driver/nest_parser.h), runs dependence analysis and the UOV
 * search, prints the storage plan, and optionally emits compilable C.
 *
 *   $ ./uovc nest.txt
 *   $ ./uovc --emit-c --tiled 8x64 nest.txt > kernel.c
 *   $ ./uovc --objective storage --layout blocked nest.txt
 *   $ ./uovc --multi nest.txt        # per-array plans, multi-statement
 */

#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>

#include "analysis/multi.h"
#include "analysis/pipeline.h"
#include "codegen/codegen.h"
#include "codegen/jit.h"
#include "driver/nest_parser.h"
#include "support/error.h"
#include "support/flags.h"

using namespace uov;

namespace {

const char *kExample =
    "# 5-point stencil over time (paper Section 5)\n"
    "nest stencil5\n"
    "bounds 1..18 0..99\n"
    "statement B\n"
    "  write B[0,0]\n"
    "  read  B[-1,-2]\n"
    "  read  B[-1,-1]\n"
    "  read  B[-1,0]\n"
    "  read  B[-1,1]\n"
    "  read  B[-1,2]\n";

} // namespace

int
main(int argc, char **argv)
{
    PlanOptions popts;
    bool emit_c = false, multi = false, run = false, example = false;
    std::vector<int64_t> tiles;
    std::vector<std::string> paths;

    FlagTable flags("uovc",
                    "usage: uovc [options] [nest-file]\n"
                    "  reads the nest from the file, or stdin when omitted\n"
                    "options:\n",
                    33);
    flags.add("--objective shortest|storage", "UOV search objective",
              [&](const std::string &v) {
                  if (v != "shortest" && v != "storage")
                      throw FlagError("bad --objective '" + v + "'");
                  popts.objective = v == "shortest"
                                        ? SearchObjective::ShortestVector
                                        : SearchObjective::BoundedStorage;
              })
        .add("--layout interleaved|blocked", "non-prime OV layout",
             [&](const std::string &v) {
                 if (v != "interleaved" && v != "blocked")
                     throw FlagError("bad --layout '" + v + "'");
                 popts.layout = v == "blocked" ? ModLayout::Blocked
                                               : ModLayout::Interleaved;
             })
        .add("--emit-c", "print generated C", [&](auto &) { emit_c = true; })
        .add("--tiled TxS", "skewed-tiled codegen",
             [&](const std::string &v) {
                 auto x = v.find('x');
                 if (x == std::string::npos)
                     throw FlagError("bad --tiled '" + v + "', want TxS");
                 tiles.assign(2, 0);
                 if (!parseWholeNumber(v.substr(0, x), tiles[0]) ||
                     !parseWholeNumber(v.substr(x + 1), tiles[1]))
                     throw std::invalid_argument(v);
             })
        .add("--run",
             "compile the generated C with\n"
             "the host cc, dlopen it, run\n"
             "it, and print a checksum",
             [&](auto &) { run = true; })
        .add("--multi", "per-array multi-statement plan",
             [&](auto &) { multi = true; })
        .add("--example", "print an example nest file",
             [&](auto &) { example = true; });
    if (std::optional<int> rc = flags.run(argc, argv, &paths))
        return *rc;
    if (example) {
        std::cout << kExample;
        return 0;
    }

    std::string path = paths.empty() ? "" : paths.back();
    try {
        LoopNest nest = [&] {
            if (path.empty())
                return parseNest(std::cin);
            std::ifstream f(path);
            UOV_REQUIRE(f.good(), "cannot open '" << path << "'");
            return parseNest(f);
        }();

        std::cerr << "parsed: " << nest.str() << "\n";

        if (multi) {
            MultiNestPlan plan = planMultiStatement(nest, popts.layout);
            std::cout << plan.str() << "\n";
            return 0;
        }

        MappingPlan plan = planStorageMapping(nest, 0, popts);
        std::cout << plan.str() << "\n";

        if (emit_c || run) {
            CodegenOptions copts;
            copts.storage = GenStorage::OvMapped;
            if (!tiles.empty()) {
                copts.schedule = GenSchedule::SkewedTiled;
                copts.tile_sizes = tiles;
            }
            GeneratedCode code = generateC(nest, plan, copts);
            if (emit_c)
                std::cout << "\n" << code.source;
            if (run) {
                auto dir = std::filesystem::temp_directory_path() /
                           ("uovc_" + nest.name());
                JitOptions jit;
                jit.cache_dir = dir.string();
                JitKernel kernel = JitCompiler(jit).compileAndLoad(code);
                std::vector<double> out(
                    static_cast<size_t>(outputCellCount(nest)));
                kernel.fn<void (*)(double *)>(code.function_name)(
                    out.data());
                double checksum = 0;
                for (double v : out)
                    checksum += v;
                std::cout << "ran " << kernel.path() << ": output row of "
                          << out.size() << " values, checksum "
                          << checksum << "\n";
            }
        }
        return 0;
    } catch (const std::exception &e) {
        // One error line, as uovd answers it: a UovError or running out
        // of memory (std::bad_alloc).
        std::cerr << "uovc: " << e.what() << "\n";
        return 1;
    }
}
