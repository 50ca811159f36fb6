/**
 * @file
 * Code-generation tests: structural checks on the emitted C, golden
 * files pinning representative kernels, up-front option validation,
 * the register-tiling cost model, and the full compile-and-run matrix
 * -- {Lexicographic 1D/2D/3D/6D, SkewedTiled 2D, RegisterTiled} x
 * {Expanded, OvMapped} -- compared bit-exactly against
 * interpretKernel, the C++ interpreter oracle.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <fstream>
#include <sstream>
#include <vector>

#include "codegen/codegen.h"
#include "codegen/jit.h"
#include "codegen/regcost.h"
#include "codegen_golden_cases.h"

#ifndef UOV_CODEGEN_GOLDEN_DIR
#define UOV_CODEGEN_GOLDEN_DIR ""
#endif

// Compile-and-run tests need a host C compiler; skip (not fail) when
// the environment has none, mirroring the codegen fuzz oracle.
#define UOV_SKIP_WITHOUT_CC()                                          \
    do {                                                               \
        if (!JitCompiler::hostCompilerAvailable())                     \
            GTEST_SKIP() << "no host C compiler on PATH";              \
    } while (0)

namespace uov {
namespace {

/** JIT-compile into a fresh cache directory, run; the output row. */
std::vector<double>
runGenerated(const LoopNest &nest, const GeneratedCode &code)
{
    // ctest runs each case in its own process, concurrently: the pid
    // keeps two processes from compiling into the same files.
    static int counter = 0;
    JitOptions options;
    options.cache_dir = ::testing::TempDir() + "uov_codegen_" +
                        std::to_string(static_cast<long>(::getpid())) +
                        "_" + std::to_string(counter++);
    std::vector<double> out(
        static_cast<size_t>(outputCellCount(nest)), -1.0);
    {
        JitCompiler jit(options);
        JitKernel kernel = jit.compileAndLoad(code);
        kernel.fn<void (*)(double *)>(code.function_name)(out.data());
    }
    std::filesystem::remove_all(options.cache_dir);
    return out;
}

/**
 * One matrix cell: plan, generate, assert the temporary is sized
 * exactly right for the storage discipline, compile, run, and compare
 * bit-exactly against the interpreter oracle.
 */
void
checkCase(const LoopNest &nest, GenSchedule schedule,
          GenStorage storage, std::vector<int64_t> tiles = {})
{
    MappingPlan plan = planStorageMapping(nest, 0);
    CodegenOptions opts;
    opts.schedule = schedule;
    opts.storage = storage;
    opts.tile_sizes = std::move(tiles);
    static int id = 0;
    opts.function_name = "uov_case_" + std::to_string(id++);
    GeneratedCode code = generateC(nest, plan, opts);

    if (storage == GenStorage::OvMapped) {
        ASSERT_EQ(code.temp_cells, plan.mapping.cellCount());
    } else {
        int64_t box = 1;
        for (size_t c = 0; c < nest.depth(); ++c)
            box *= nest.hi()[c] - nest.lo()[c] + 1;
        ASSERT_EQ(code.temp_cells, box);
    }
    EXPECT_EQ(runGenerated(nest, code), interpretKernel(nest))
        << "schedule=" << static_cast<int>(schedule)
        << " storage=" << static_cast<int>(storage)
        << " unroll=" << code.unroll << " jam=" << code.jam;
}

LoopNest
chainNest1d()
{
    LoopNest nest("chain", IVec{1}, IVec{40});
    Statement s;
    s.name = "c";
    s.write = uniformAccess("C", IVec{0});
    s.reads = {uniformAccess("C", IVec{-1}),
               uniformAccess("C", IVec{-3})};
    nest.addStatement(s);
    return nest;
}

LoopNest
sixDimNest()
{
    LoopNest nest("six", IVec{1, 0, 0, 0, 0, 0},
                  IVec{3, 2, 2, 1, 2, 2});
    Statement s;
    s.name = "S";
    s.write = uniformAccess("S", IVec{0, 0, 0, 0, 0, 0});
    s.reads = {uniformAccess("S", IVec{-1, 0, 0, 0, 0, 0}),
               uniformAccess("S", IVec{-1, 1, 0, 0, -1, 0})};
    nest.addStatement(s);
    return nest;
}

TEST(Codegen, SourceStructure)
{
    LoopNest nest = nests::simpleExample(6, 8);
    MappingPlan plan = planStorageMapping(nest, 0);
    GeneratedCode code = generateC(nest, plan);

    EXPECT_EQ(code.temp_cells, plan.mapping.cellCount());
    EXPECT_NE(code.source.find("static double TMP[" +
                               std::to_string(code.temp_cells) + "]"),
              std::string::npos);
    EXPECT_NE(code.source.find("void uov_kernel(double *output)"),
              std::string::npos);
    EXPECT_NE(code.source.find("static long sm(long q0, long q1)"),
              std::string::npos);
}

TEST(Codegen, ExpandedUsesFullArray)
{
    LoopNest nest = nests::simpleExample(6, 8);
    MappingPlan plan = planStorageMapping(nest, 0);
    CodegenOptions opts;
    opts.storage = GenStorage::Expanded;
    GeneratedCode code = generateC(nest, plan, opts);
    EXPECT_EQ(code.temp_cells, 6 * 8);
}

TEST(Codegen, RejectsNonFlowReads)
{
    LoopNest nest("n", IVec{1, 1}, IVec{4, 4});
    Statement s;
    s.name = "s";
    s.write = uniformAccess("A", IVec{0, 0});
    s.reads = {uniformAccess("A", IVec{-1, 0}),
               uniformAccess("A", IVec{0, 0})}; // import
    nest.addStatement(s);
    // Pipeline itself succeeds (one flow read), codegen must reject.
    MappingPlan plan = planStorageMapping(nest, 0);
    EXPECT_THROW(generateC(nest, plan), UovUserError);
}

TEST(Codegen, SevenDimensionalNestIsRefusedByEmitterAndInterpreter)
{
    // The interpreter indexes one boundary weight per dimension, so it
    // checks the emitter's depth limit itself, with the emitter's text,
    // before it reads a weight.
    std::vector<int64_t> zero(7, 0), one(7, 1), back(7, 0);
    back[0] = -1;
    LoopNest nest("seven", IVec(zero), IVec(one));
    Statement s;
    s.name = "S";
    s.write = uniformAccess("S", IVec(zero));
    s.reads = {uniformAccess("S", IVec(back))};
    nest.addStatement(s);
    ASSERT_EQ(nest.depth(), kMaxCodegenDepth + 1);
    MappingPlan plan = planStorageMapping(nest, 0);
    auto expectRefused = [](auto &&run) {
        try {
            run();
            ADD_FAILURE() << "a 7-D nest was accepted";
        } catch (const UovUserError &e) {
            EXPECT_STREQ(e.what(), "codegen supports 1- to 6-D nests");
        }
    };
    expectRefused([&] { interpretKernel(nest); });
    expectRefused([&] { generateC(nest, plan); });
}

// ---------------------------------------------------------------- //
// Option validation: knobs that a schedule would silently ignore    //
// are rejected up front with a message naming the offender.         //
// ---------------------------------------------------------------- //

TEST(CodegenOptionsValidation, TileSizesRejectedForLexicographic)
{
    LoopNest nest = nests::simpleExample(6, 8);
    MappingPlan plan = planStorageMapping(nest, 0);
    CodegenOptions opts;
    opts.tile_sizes = {4, 4};
    try {
        generateC(nest, plan, opts);
        FAIL() << "expected UovUserError";
    } catch (const UovUserError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("tile_sizes is only meaningful"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("lexicographic"), std::string::npos) << msg;
    }
}

TEST(CodegenOptionsValidation, TileSizesRejectedForRegisterTiled)
{
    LoopNest nest = nests::simpleExample(6, 8);
    MappingPlan plan = planStorageMapping(nest, 0);
    CodegenOptions opts;
    opts.schedule = GenSchedule::RegisterTiled;
    opts.tile_sizes = {4};
    try {
        generateC(nest, plan, opts);
        FAIL() << "expected UovUserError";
    } catch (const UovUserError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("register-tiled"), std::string::npos)
            << msg;
    }
}

TEST(CodegenOptionsValidation, UnrollRejectedForLexicographic)
{
    LoopNest nest = nests::simpleExample(6, 8);
    MappingPlan plan = planStorageMapping(nest, 0);
    CodegenOptions opts;
    opts.unroll = 4;
    try {
        generateC(nest, plan, opts);
        FAIL() << "expected UovUserError";
    } catch (const UovUserError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("unroll/jam are only meaningful"),
                  std::string::npos)
            << msg;
    }
}

TEST(CodegenOptionsValidation, JamRejectedForOneDimensionalNest)
{
    LoopNest nest = chainNest1d();
    MappingPlan plan = planStorageMapping(nest, 0);
    CodegenOptions opts;
    opts.schedule = GenSchedule::RegisterTiled;
    opts.jam = 2;
    try {
        generateC(nest, plan, opts);
        FAIL() << "expected UovUserError";
    } catch (const UovUserError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("no second-innermost"), std::string::npos)
            << msg;
    }
}

TEST(CodegenOptionsValidation, IllegalExplicitJamRejected)
{
    // fivePointStencil carries a (1,-1) distance: jamming the outer
    // dimension by 2 would read that value before it is written.
    LoopNest nest = nests::fivePointStencil(10, 12);
    MappingPlan plan = planStorageMapping(nest, 0);
    CodegenOptions opts;
    opts.schedule = GenSchedule::RegisterTiled;
    opts.jam = 2;
    try {
        generateC(nest, plan, opts);
        FAIL() << "expected UovUserError";
    } catch (const UovUserError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("reorders a dependence"),
                  std::string::npos)
            << msg;
    }
}

TEST(CodegenOptionsValidation, OvMappedRequiresTimeAdvancingOv)
{
    // A stencil whose only dependence lies inside the q0 = const
    // plane gets an OV with ov[0] == 0; the output-hyperplane
    // convention is unsound there and codegen must say so (found by
    // the codegen fuzz oracle).
    LoopNest nest("plane", IVec{0, 0}, IVec{3, 3});
    Statement s;
    s.name = "P";
    s.write = uniformAccess("P", IVec{0, 0});
    s.reads = {uniformAccess("P", IVec{0, -1})};
    nest.addStatement(s);
    MappingPlan plan = planStorageMapping(nest, 0);
    ASSERT_EQ(plan.mapping.ov()[0], 0);
    try {
        generateC(nest, plan);
        FAIL() << "expected UovUserError";
    } catch (const UovUserError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("advances dimension 0"), std::string::npos)
            << msg;
    }
    // Expanded storage has no such constraint.
    CodegenOptions opts;
    opts.storage = GenStorage::Expanded;
    if (JitCompiler::hostCompilerAvailable()) {
        GeneratedCode code = generateC(nest, plan, opts);
        EXPECT_EQ(runGenerated(nest, code), interpretKernel(nest));
    }
}

TEST(CodegenOptionsValidation, BadFunctionNameRejected)
{
    LoopNest nest = nests::simpleExample(6, 8);
    MappingPlan plan = planStorageMapping(nest, 0);
    CodegenOptions opts;
    opts.function_name = "1bad name";
    try {
        generateC(nest, plan, opts);
        FAIL() << "expected UovUserError";
    } catch (const UovUserError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("not a valid C identifier"),
                  std::string::npos)
            << msg;
    }
}

// ---------------------------------------------------------------- //
// Register-tiling cost model.                                       //
// ---------------------------------------------------------------- //

TEST(RegCost, JamLegality)
{
    // (1,-1): lex-negative suffix after dim 0 -> jamming dim 0 by 2
    // is illegal; (1,1) alone is fine.
    std::vector<IVec> bad = {IVec{1, 0}, IVec{1, -1}};
    std::vector<IVec> good = {IVec{1, 0}, IVec{1, 1}};
    EXPECT_FALSE(jamLegal(bad, 0, 2));
    EXPECT_TRUE(jamLegal(good, 0, 2));
    // Nonzero outer prefix shields the jam dimension entirely.
    std::vector<IVec> heat = {IVec{1, 0, 0}, IVec{1, -1, 0},
                              IVec{1, 1, 0}};
    EXPECT_TRUE(jamLegal(heat, 1, 4));
}

TEST(RegCost, PickedPlanIsLegalAndFitsRegisters)
{
    std::vector<IVec> heat = {IVec{1, 0, 0}, IVec{1, 1, 0},
                              IVec{1, -1, 0}, IVec{1, 0, 1},
                              IVec{1, 0, -1}};
    RegisterPlan rp = pickRegisterPlan(heat, 3, 16, 0);
    EXPECT_GE(rp.unroll, 1);
    EXPECT_GE(rp.jam, 1);
    EXPECT_LE(rp.regs, 16);
    EXPECT_TRUE(jamLegal(heat, 1, rp.jam));
    // Unroll-and-jam must pay off on a stencil: fewer loads per
    // iteration than the 1x1 baseline's five.
    RegisterPlan base = evaluateRegisterPlan(heat, 3, 1, 1, 0);
    EXPECT_LT(rp.loadsPerIter(), base.loadsPerIter());
}

TEST(RegCost, IllegalJamNeverPicked)
{
    std::vector<IVec> dists = {IVec{1, 0}, IVec{1, -1}};
    RegisterPlan rp = pickRegisterPlan(dists, 2, 16, 0);
    EXPECT_EQ(rp.jam, 1);
}

// ---------------------------------------------------------------- //
// Golden files: the generated C for three representative triples    //
// is pinned verbatim.  Regenerate with                              //
// scripts/update_codegen_golden.sh after an intentional emitter     //
// change and review the diff.                                       //
// ---------------------------------------------------------------- //

TEST(CodegenGolden, MatchesPinnedFiles)
{
    std::string dir = UOV_CODEGEN_GOLDEN_DIR;
    ASSERT_FALSE(dir.empty());
    for (const auto &gc : golden::goldenCases()) {
        MappingPlan plan = planStorageMapping(gc.nest, 0);
        GeneratedCode code = generateC(gc.nest, plan, gc.options);
        std::ifstream in(dir + "/" + gc.name + ".golden.c");
        ASSERT_TRUE(in.good())
            << "missing golden file for '" << gc.name
            << "'; run scripts/update_codegen_golden.sh";
        std::ostringstream oss;
        oss << in.rdbuf();
        EXPECT_EQ(code.source, oss.str())
            << "emitter output drifted for '" << gc.name
            << "'; if intentional, run "
               "scripts/update_codegen_golden.sh and review the diff";
    }
}

// ---------------------------------------------------------------- //
// Compile-and-run matrix, bit-exact against interpretKernel.        //
// ---------------------------------------------------------------- //

/** The lexicographic, skewed-tiled and register-tiled units of
 *  @p nest under @p storage, all named uov_bundled. */
std::vector<GeneratedCode>
threeSchedules(const LoopNest &nest, const MappingPlan &plan,
               GenStorage storage)
{
    std::vector<GeneratedCode> units;
    for (GenSchedule schedule :
         {GenSchedule::Lexicographic, GenSchedule::SkewedTiled,
          GenSchedule::RegisterTiled}) {
        CodegenOptions opts;
        opts.schedule = schedule;
        opts.storage = storage;
        if (schedule == GenSchedule::SkewedTiled)
            opts.tile_sizes = {4, 8};
        opts.function_name = "uov_bundled";
        units.push_back(generateC(nest, plan, opts));
    }
    return units;
}

/** The names @p source defines at file scope: each line that starts
 *  with a letter declares one, the identifier before its first '(',
 *  '[', '=' or ';'. */
std::vector<std::string>
fileScopeNames(const std::string &source)
{
    std::vector<std::string> names;
    std::istringstream in(source);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || !std::isalpha(static_cast<unsigned char>(line[0])))
            continue;
        size_t end = line.find_first_of("([=;");
        end = line.find_last_not_of(' ', end - 1) + 1;
        size_t begin = end;
        while (begin > 0 &&
               (std::isalnum(static_cast<unsigned char>(line[begin - 1])) ||
                line[begin - 1] == '_'))
            --begin;
        names.push_back(line.substr(begin, end - begin));
    }
    return names;
}

TEST(CodegenBundle, RenamesEveryFileScopeNameAndKeepsEveryText)
{
    LoopNest nest = nests::fivePointStencil(12, 16);
    MappingPlan plan = planStorageMapping(nest, 0);
    for (GenStorage storage : {GenStorage::Expanded, GenStorage::OvMapped}) {
        std::vector<GeneratedCode> units =
            threeSchedules(nest, plan, storage);
        for (const GeneratedCode &unit : units) {
            // A name the bundler does not rename would be defined
            // once per unit in one translation unit.
            std::vector<std::string> names = fileScopeNames(unit.source);
            EXPECT_EQ(names.size(), std::size(kUnitFileScopeNames) + 1);
            for (const std::string &name : names) {
                bool renamed = name == unit.function_name;
                for (const char *listed : kUnitFileScopeNames)
                    renamed = renamed || name == listed;
                EXPECT_TRUE(renamed)
                    << "file-scope name '" << name
                    << "' is missing from kUnitFileScopeNames";
            }
        }
        CodeBundle bundle = bundleUnits(units);
        ASSERT_EQ(bundle.symbols.size(), units.size());
        for (size_t k = 0; k < units.size(); ++k) {
            EXPECT_NE(bundle.source.find(units[k].source),
                      std::string::npos)
                << "unit " << k << "'s text is not in the bundle";
            EXPECT_EQ(bundle.symbols[k], "uov_bundled_" + std::to_string(k));
        }
    }
}

TEST(CodegenBundle, OneUnitIsItsSourceUnchanged)
{
    LoopNest nest = nests::fivePointStencil(12, 16);
    MappingPlan plan = planStorageMapping(nest, 0);
    GeneratedCode lex =
        threeSchedules(nest, plan, GenStorage::OvMapped).front();
    CodeBundle one = bundleUnits({lex});
    EXPECT_EQ(one.source, lex.source);
    EXPECT_EQ(one.symbols, std::vector<std::string>{"uov_bundled"});
    // Identical units merge; one distinct unit is still left alone.
    CodeBundle twice = bundleUnits({lex, lex});
    EXPECT_EQ(twice.source, lex.source);
    EXPECT_EQ(twice.symbols,
              (std::vector<std::string>{"uov_bundled", "uov_bundled"}));
}

TEST(CodegenBundle, IdenticalUnitsShareOneDefinition)
{
    LoopNest nest = nests::fivePointStencil(12, 16);
    MappingPlan plan = planStorageMapping(nest, 0);
    std::vector<GeneratedCode> three =
        threeSchedules(nest, plan, GenStorage::OvMapped);
    const GeneratedCode &lex = three[0];
    const GeneratedCode &rtile = three[2];
    CodeBundle bundle = bundleUnits({lex, rtile, lex});
    ASSERT_EQ(bundle.symbols.size(), 3u);
    EXPECT_EQ(bundle.symbols[0], bundle.symbols[2]);
    EXPECT_NE(bundle.symbols[0], bundle.symbols[1]);
    size_t first = bundle.source.find(lex.source);
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(bundle.source.find(lex.source, first + 1), std::string::npos);
}

TEST(CodegenBundle, CompilesOnceAndEveryKernelMatchesTheInterpreter)
{
    UOV_SKIP_WITHOUT_CC();
    LoopNest nest = nests::fivePointStencil(12, 16);
    MappingPlan plan = planStorageMapping(nest, 0);
    std::vector<GeneratedCode> units =
        threeSchedules(nest, plan, GenStorage::Expanded);
    for (GeneratedCode &unit :
         threeSchedules(nest, plan, GenStorage::OvMapped))
        units.push_back(std::move(unit));
    CodeBundle bundle = bundleUnits(units);
    ASSERT_EQ(bundle.symbols.size(), 6u);

    JitOptions options;
    options.cache_dir = ::testing::TempDir() + "uov_bundle_" +
                        std::to_string(static_cast<long>(::getpid()));
    std::filesystem::remove_all(options.cache_dir);
    {
        JitCompiler jit(options);
        JitKernel kernel = jit.load(jit.compile(bundle.source));
        EXPECT_EQ(jit.compilesInvoked(), 1u);
        const std::vector<double> want = interpretKernel(nest);
        for (const std::string &symbol : bundle.symbols) {
            std::vector<double> got(want.size(), -1.0);
            kernel.fn<void (*)(double *)>(symbol)(got.data());
            EXPECT_EQ(got, want) << symbol;
        }
    }
    std::filesystem::remove_all(options.cache_dir);
}

TEST(CodegenMatrix, Lexicographic1D)
{
    UOV_SKIP_WITHOUT_CC();
    checkCase(chainNest1d(), GenSchedule::Lexicographic,
              GenStorage::Expanded);
    checkCase(chainNest1d(), GenSchedule::Lexicographic,
              GenStorage::OvMapped);
}

TEST(CodegenMatrix, Lexicographic2D)
{
    UOV_SKIP_WITHOUT_CC();
    LoopNest nest = nests::simpleExample(20, 30);
    checkCase(nest, GenSchedule::Lexicographic, GenStorage::Expanded);
    checkCase(nest, GenSchedule::Lexicographic, GenStorage::OvMapped);
}

TEST(CodegenMatrix, Lexicographic3D)
{
    UOV_SKIP_WITHOUT_CC();
    LoopNest nest = golden::heatNest3d();
    checkCase(nest, GenSchedule::Lexicographic, GenStorage::Expanded);
    checkCase(nest, GenSchedule::Lexicographic, GenStorage::OvMapped);
}

TEST(CodegenMatrix, Lexicographic6D)
{
    UOV_SKIP_WITHOUT_CC();
    LoopNest nest = sixDimNest();
    checkCase(nest, GenSchedule::Lexicographic, GenStorage::Expanded);
    checkCase(nest, GenSchedule::Lexicographic, GenStorage::OvMapped);
}

TEST(CodegenMatrix, SkewedTiled2D)
{
    UOV_SKIP_WITHOUT_CC();
    LoopNest nest = nests::fivePointStencil(18, 40);
    checkCase(nest, GenSchedule::SkewedTiled, GenStorage::Expanded,
              {5, 13});
    checkCase(nest, GenSchedule::SkewedTiled, GenStorage::OvMapped,
              {5, 13});
}

TEST(CodegenMatrix, RegisterTiled1D)
{
    UOV_SKIP_WITHOUT_CC();
    checkCase(chainNest1d(), GenSchedule::RegisterTiled,
              GenStorage::Expanded);
    checkCase(chainNest1d(), GenSchedule::RegisterTiled,
              GenStorage::OvMapped);
}

TEST(CodegenMatrix, RegisterTiled2D)
{
    UOV_SKIP_WITHOUT_CC();
    LoopNest nest = nests::fivePointStencil(18, 40);
    checkCase(nest, GenSchedule::RegisterTiled, GenStorage::Expanded);
    checkCase(nest, GenSchedule::RegisterTiled, GenStorage::OvMapped);
}

TEST(CodegenMatrix, RegisterTiled3D)
{
    UOV_SKIP_WITHOUT_CC();
    LoopNest nest = golden::heatNest3d();
    checkCase(nest, GenSchedule::RegisterTiled, GenStorage::Expanded);
    checkCase(nest, GenSchedule::RegisterTiled, GenStorage::OvMapped);
}

TEST(CodegenMatrix, RegisterTiled6D)
{
    UOV_SKIP_WITHOUT_CC();
    LoopNest nest = sixDimNest();
    checkCase(nest, GenSchedule::RegisterTiled, GenStorage::Expanded);
    checkCase(nest, GenSchedule::RegisterTiled, GenStorage::OvMapped);
}

TEST(CodegenMatrix, RegisterTiledExplicitFactors)
{
    UOV_SKIP_WITHOUT_CC();
    // heat3d's (1,*,*) distances shield the jam dimension, so any
    // explicit jam is legal; ragged bounds exercise the remainders.
    LoopNest nest = golden::heatNest3d();
    MappingPlan plan = planStorageMapping(nest, 0);
    CodegenOptions opts;
    opts.schedule = GenSchedule::RegisterTiled;
    opts.unroll = 4;
    opts.jam = 3;
    opts.function_name = "uov_rtile_explicit";
    GeneratedCode code = generateC(nest, plan, opts);
    EXPECT_EQ(code.unroll, 4);
    EXPECT_EQ(code.jam, 3);
    EXPECT_EQ(runGenerated(nest, code), interpretKernel(nest));
}

TEST(CodegenMatrix, SkewedTiledBlockedLayout)
{
    UOV_SKIP_WITHOUT_CC();
    LoopNest nest = nests::fivePointStencil(12, 32);
    PlanOptions popts;
    popts.layout = ModLayout::Blocked;
    MappingPlan plan = planStorageMapping(nest, 0, popts);

    CodegenOptions opts;
    opts.schedule = GenSchedule::SkewedTiled;
    opts.tile_sizes = {4, 16};
    opts.function_name = "uov_tiled_blocked";
    GeneratedCode code = generateC(nest, plan, opts);

    EXPECT_EQ(runGenerated(nest, code), interpretKernel(nest));
}

TEST(CodegenMatrix, PsmNestGeneratesAndRuns)
{
    UOV_SKIP_WITHOUT_CC();
    LoopNest nest = nests::proteinMatching(15, 25);
    MappingPlan plan = planStorageMapping(nest, 0);
    CodegenOptions opts;
    opts.function_name = "uov_psm";
    GeneratedCode code = generateC(nest, plan, opts);
    EXPECT_EQ(code.temp_cells, plan.mapping.cellCount());
    EXPECT_EQ(runGenerated(nest, code), interpretKernel(nest));
}

} // namespace
} // namespace uov
