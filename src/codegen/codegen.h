/**
 * @file
 * C code generation for OV-mapped loop nests (Section 4: "After
 * selecting an occupancy vector ... we must determine a storage
 * mapping in order to generate code").
 *
 * Given a loop nest, a mapping plan, and a schedule choice, emits a
 * self-contained C function:
 *
 *   void kernel(double *output);
 *
 * with the temporary array declared at exactly
 * plan.mapping.cellCount() elements and every access routed through
 * SM(q) = mv.q + shift + modterm.  Supported schedules: the original
 * lexicographic order (1- to 6-D nests), rectangular tiling of a
 * skewed space (2-D, Section 2's tiling), and a register-tiled
 * variant (innermost unroll + second-innermost unroll-and-jam with
 * factors picked by the regcost model, legality-checked against the
 * dependence distances).  The generated text is deterministic; the
 * integration tests and the codegen fuzz oracle compile it through
 * the JIT pipeline (codegen/jit.h) and compare bit-exactly against
 * interpretKernel, the C++ interpreter oracle.
 */

#ifndef UOV_CODEGEN_CODEGEN_H
#define UOV_CODEGEN_CODEGEN_H

#include <optional>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "geometry/matrix.h"
#include "ir/program.h"
#include "schedule/builder.h"

namespace uov {

/** Deepest nest generateC emits and interpretKernel runs: the
 *  boundary convention has one weight per dimension. */
inline constexpr size_t kMaxCodegenDepth = 6;

/** Storage discipline of the generated temporary array. */
enum class GenStorage
{
    Expanded, ///< full array over the iteration box (baseline)
    OvMapped, ///< plan.mapping's cells
};

/**
 * Whether GenStorage::OvMapped can serve a plan whose occupancy
 * vector is @p ov.  The output convention reads the final
 * q0-hyperplane after the sweep, and under OV-mapped storage that
 * plane survives only when the OV advances dimension 0: cells recur
 * along q + Z*ov, so an ov with ov[0] == 0 lets a later iteration in
 * the same plane overwrite a result before the copy-out runs.
 * generateC requires it, and 'query native' and the tuner choose
 * storage by it.
 */
inline bool
ovMappingKeepsOutput(const IVec &ov)
{
    return ov[0] >= 1;
}

/**
 * Code-generation parameters.
 *
 * Options are validated up front: tile_sizes is meaningful only for
 * SkewedTiled (exactly two sizes >= 1) and must be empty otherwise;
 * unroll/jam are meaningful only for RegisterTiled, where 0 asks the
 * regcost model to pick and an explicit jam must pass jamLegal.
 */
struct CodegenOptions
{
    GenSchedule schedule = GenSchedule::Lexicographic;
    GenStorage storage = GenStorage::OvMapped;
    std::vector<int64_t> tile_sizes; ///< SkewedTiled only: two sizes
    int64_t unroll = 0; ///< RegisterTiled innermost factor (0 = auto)
    int64_t jam = 0;    ///< RegisterTiled jam factor (0 = auto)
    std::string function_name = "uov_kernel";
};

/** A generated compilation unit. */
struct GeneratedCode
{
    std::string source;        ///< complete C translation unit
    std::string function_name; ///< exported symbol
    int64_t temp_cells;        ///< temporary array size in elements
    int64_t unroll = 1;        ///< innermost unroll actually emitted
    int64_t jam = 1;           ///< jam factor actually emitted
};

/**
 * Generate C for @p nest's statement 0 with @p plan's storage mapping.
 *
 * The emitted function signature is
 *   void <name>(double *output);
 * where boundary values follow the canned bval() convention (see the
 * generated comment) and output receives one value per
 * iteration-space point on the final hyperplane of dimension 0.
 *
 * @pre the nest has a single statement whose reads all carry
 *      constant loop-carried distances (the paper's program class);
 *      SkewedTiled additionally requires depth 2
 * @throws UovUserError unless the nest is 1- to kMaxCodegenDepth-D
 */
GeneratedCode generateC(const LoopNest &nest, const MappingPlan &plan,
                        const CodegenOptions &options = {});

/**
 * File-scope names every generated unit defines besides its function.
 * bundleUnits renames exactly these and the function, so a name
 * generateC starts to write at file scope must join this list.
 */
inline constexpr const char *kUnitFileScopeNames[] = {"TMP", "bval", "sm",
                                                      "val"};

/** Several generated units as one C translation unit. */
struct CodeBundle
{
    std::string source; ///< the translation unit
    /** Per input unit, the symbol its function is exported under. */
    std::vector<std::string> symbols;
};

/**
 * Bundle @p units so that one compiler call and one dlopen serve them
 * all.  Each distinct unit's text is copied unchanged between
 * #define and #undef lines that give its file-scope names
 * (kUnitFileScopeNames and its function) the suffix _<k>, k counting
 * distinct units; byte-identical units share one definition.  A
 * bundle of one distinct unit is that unit's source, unchanged, under
 * its own function name.
 * @pre @p units is nonempty
 */
CodeBundle bundleUnits(const std::vector<GeneratedCode> &units);

/**
 * The interpreter oracle: run @p nest's statement-0 computation (the
 * exact double-precision recurrence generateC emits) under the
 * original lexicographic order with fully expanded storage, and
 * return the final q0-hyperplane row-major over dimensions 1..d-1.
 * Generated kernels of every (schedule, storage) combination must
 * reproduce this vector bit-for-bit; the codegen fuzz oracle and the
 * test matrix both compare against it.
 * @throws UovUserError unless the nest is 1- to kMaxCodegenDepth-D
 *         (generateC's text)
 */
std::vector<double> interpretKernel(const LoopNest &nest);

/** Elements in the output row (1 when the nest is 1-D). */
int64_t outputCellCount(const LoopNest &nest);

} // namespace uov

#endif // UOV_CODEGEN_CODEGEN_H
