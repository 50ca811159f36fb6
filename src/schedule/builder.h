/**
 * @file
 * Composable schedule primitives (the FreeTensor-style builder the
 * autotuner enumerates over).
 *
 * A ScheduleBuilder starts from the original lexicographic order and
 * records primitive applications -- reorder, skew, split/tile, unroll,
 * unroll-and-jam -- as (a) a unimodular transform, (b) per-dimension
 * tile sizes, and (c) register-tiling factors.  The composition is
 * validated as a whole against the dependence stencil with the
 * existing algebraic checkers (legality.h, regcost.h's jamLegal), can
 * be materialized as a Schedule object for the simulators and the
 * empirical legality oracle, and -- when it matches one of the forms
 * the C emitter knows -- lowers to exact CodegenOptions fields for the
 * native backend.
 *
 * Builders are cheap value types: the tuner copies them freely while
 * enumerating the candidate space, and str() renders the primitive
 * sequence deterministically for response lines and bench tables.
 */

#ifndef UOV_SCHEDULE_BUILDER_H
#define UOV_SCHEDULE_BUILDER_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/stencil.h"
#include "geometry/matrix.h"
#include "schedule/schedule.h"

namespace uov {

/** The GenSchedule form a builder lowers to (codegen.h re-exported
 *  would be a cyclic include; the integer values match GenSchedule). */
enum class LoweredForm
{
    Lexicographic,
    SkewedTiled,
    RegisterTiled,
};

/** Exact CodegenOptions fields for a lowerable builder. */
struct LoweredSchedule
{
    LoweredForm form = LoweredForm::Lexicographic;
    std::vector<int64_t> tile_sizes; ///< SkewedTiled only: two sizes
    int64_t unroll = 0;              ///< RegisterTiled only
    int64_t jam = 0;                 ///< RegisterTiled only
};

/**
 * A composed sequence of schedule primitives over a depth-d nest.
 *
 * Primitives mutate the builder and return *this so applications
 * chain; each records itself for str().  Primitives validate their
 * own shape eagerly (bad dimension index, non-positive factor ->
 * UovUserError) but legality against a stencil is checked as a whole
 * by validate(), so partial compositions that pass through an illegal
 * intermediate state are fine.
 */
class ScheduleBuilder
{
  public:
    /** Depth-0 placeholder (containers); not usable until assigned. */
    ScheduleBuilder() = default;

    /** The identity (original lexicographic) schedule for depth d. */
    explicit ScheduleBuilder(size_t depth);

    /**
     * Permute the loops: perm[k] names the original dimension iterated
     * at nest level k (outermost first).
     * @throws UovUserError unless perm is a permutation of 0..d-1
     */
    ScheduleBuilder &reorder(const std::vector<size_t> &perm);

    /**
     * Skew dimension @p target by @p factor times dimension @p source
     * (y_target = q_target + factor * q_source), an elementary
     * unimodular row operation.
     * @throws UovUserError on out-of-range or equal dimensions
     */
    ScheduleBuilder &skew(size_t target, size_t source, int64_t factor);

    /**
     * The canonical legal skew for @p stencil (legality.h): after it,
     * every transformed distance is component-wise non-negative, so
     * rectangular tiling is legal.
     * @throws UovUserError if some dependence has v_0 <= 0
     */
    ScheduleBuilder &skewToNonNegative(const Stencil &stencil);

    /**
     * Tile (strip-mine) transformed dimension @p dim with tiles of
     * @p size iterations; tiles execute as atomic units in
     * lexicographic order.  Applying split to an already-split
     * dimension replaces its size.
     * @throws UovUserError on out-of-range dim or size < 1
     */
    ScheduleBuilder &split(size_t dim, int64_t size);

    /** split() every dimension: sizes[k] tiles dimension k (0 keeps
     *  dimension k untiled). */
    ScheduleBuilder &tile(const std::vector<int64_t> &sizes);

    /** Unroll the innermost loop by @p factor (order-preserving). */
    ScheduleBuilder &unroll(int64_t factor);

    /**
     * Unroll-and-jam the second-innermost loop by @p factor.  Changes
     * execution order, so validate() checks jamLegal against the
     * transformed distances.
     * @throws UovUserError when depth < 2 or factor < 1
     */
    ScheduleBuilder &unrollJam(int64_t factor);

    size_t depth() const { return _depth; }
    const IMatrix &transform() const { return _transform; }
    /** Per-dimension tile sizes; 0 = untiled. */
    const std::vector<int64_t> &tileSizes() const { return _tiles; }
    /** True when any dimension is tiled. */
    bool tiled() const;
    int64_t unrollFactor() const { return _unroll; }
    int64_t jamFactor() const { return _jam; }
    /** Statement copies per emitted body under unroll/jam. */
    int64_t copies() const { return _unroll * _jam; }

    /**
     * Check the whole composition against @p stencil: the transform
     * must keep every distance lexicographically positive
     * (transformLegal), tiling additionally needs component-wise
     * non-negative transformed distances (tilingLegal), and a jam
     * factor > 1 must pass jamLegal on the transformed distances.
     * @throws UovUserError naming the first failing primitive
     */
    void validate(const Stencil &stencil) const;

    /** Non-throwing validate(). */
    bool legal(const Stencil &stencil) const;

    /**
     * Materialize the transform and tile sizes as a one-level
     * TiledSchedule (for simulators and the empirical oracle); an
     * untiled dimension is one tile spanning the box.  Unroll/jam
     * factors are not part of it: unroll keeps the visit order, and
     * the simulator replays a jam's reordered bodies itself.
     */
    std::unique_ptr<Schedule> buildSchedule() const;

    /**
     * Lower to the exact CodegenOptions fields of a GenSchedule form
     * the C emitter supports, or nullopt when the composition has no
     * native lowering:
     *  - identity transform, untiled         -> Lexicographic, or
     *    RegisterTiled when unroll/jam > 1
     *  - canonical skew (== skewToNonNegative(stencil)), both of two
     *    dimensions tiled, no unroll/jam     -> SkewedTiled
     */
    std::optional<LoweredSchedule> lower(const Stencil &stencil) const;

    /** Deterministic primitive sequence, e.g.
     *  "skew(1,0,2);tile(8,32)"; the identity renders as "lex". */
    std::string str() const;

    bool operator==(const ScheduleBuilder &o) const;

  private:
    size_t _depth = 0;
    IMatrix _transform;          ///< unimodular, composed primitives
    std::vector<int64_t> _tiles; ///< per-dim tile size, 0 = untiled
    int64_t _unroll = 1;
    int64_t _jam = 1;
    std::vector<std::string> _primitives; ///< for str()
};

} // namespace uov

#endif // UOV_SCHEDULE_BUILDER_H
