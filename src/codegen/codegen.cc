#include "codegen/codegen.h"

#include <cctype>
#include <iterator>
#include <sstream>

#include "codegen/regcost.h"
#include "geometry/box.h"
#include "mapping/expanded_array.h"
#include "schedule/legality.h"
#include "support/error.h"

namespace uov {

namespace {

/// Boundary-value weights per dimension (documented in the output).
constexpr int64_t kBvalWeights[] = {3, 7, 11, 13, 17, 19};

/** Emit "a0*q0 + a1*q1 + ..." linear expressions. */
std::string
linearExpr(const IVec &coeffs)
{
    std::ostringstream oss;
    oss << "(";
    for (size_t c = 0; c < coeffs.dim(); ++c) {
        if (c)
            oss << " + ";
        oss << coeffs[c] << "L*q" << c;
    }
    oss << ")";
    return oss.str();
}

std::string
argList(size_t d)
{
    std::ostringstream oss;
    for (size_t c = 0; c < d; ++c) {
        if (c)
            oss << ", ";
        oss << "long q" << c;
    }
    return oss.str();
}

std::string
callArgs(size_t d, const std::vector<std::string> &exprs)
{
    std::ostringstream oss;
    for (size_t c = 0; c < d; ++c) {
        if (c)
            oss << ", ";
        oss << exprs[c];
    }
    return oss.str();
}

/** The iteration-variable name "q<k>". */
std::string
qvar(size_t k)
{
    std::ostringstream oss;
    oss << "q" << k;
    return oss.str();
}

/** The iteration-variable expressions "q0".."q<d-1>". */
std::vector<std::string>
plainVars(size_t d)
{
    std::vector<std::string> qs;
    for (size_t k = 0; k < d; ++k)
        qs.push_back(qvar(k));
    return qs;
}

bool
validIdentifier(const std::string &name)
{
    if (name.empty() || std::isdigit(static_cast<unsigned char>(name[0])))
        return false;
    for (char ch : name)
        if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '_')
            return false;
    return true;
}

const char *
scheduleName(GenSchedule s)
{
    switch (s) {
      case GenSchedule::Lexicographic:
        return "lexicographic";
      case GenSchedule::SkewedTiled:
        return "skewed-tiled";
      case GenSchedule::RegisterTiled:
        return "register-tiled";
    }
    UOV_UNREACHABLE("bad GenSchedule");
}

/**
 * One statement instance at the iteration named by @p q (per-dim
 * expressions), brace-wrapped so copies can be replicated in an
 * unrolled body.  Mirrored exactly by interpretKernel.
 */
std::string
emitStatement(const DependenceInfo &deps, size_t d,
              const std::vector<std::string> &q)
{
    std::ostringstream body;
    body << "{\n";
    body << "    double v = 0.0;\n";
    for (size_t k = 0; k < deps.reads.size(); ++k) {
        const IVec &dist = deps.reads[k].distance;
        std::vector<std::string> args;
        for (size_t c = 0; c < d; ++c)
            args.push_back("(" + q[c] + ") - " +
                           std::to_string(dist[c]) + "L");
        body << "    v += " << (k + 1) << ".0 * val("
             << callArgs(d, args) << ");\n";
    }
    body << "    v = 0.5*v";
    for (size_t k = 0; k < d; ++k)
        body << " + 0.00" << k + 1 << "*(double)(" << q[k] << ")";
    body << ";\n";
    body << "    TMP[sm(" << callArgs(d, q) << ")] = v;\n";
    body << "}\n";
    return body.str();
}

/** Re-indent @p text by 4*levels spaces per line. */
std::string
indented(const std::string &text, int levels)
{
    std::string pad(static_cast<size_t>(4 * levels), ' ');
    std::istringstream in(text);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line))
        out << pad << line << "\n";
    return out.str();
}

/**
 * The register-tiled loop nest: lexicographic order with the
 * innermost loop unrolled by @p unroll and (for d >= 2) the
 * second-innermost jammed by @p jam, remainder loops covering the
 * ragged edges.  Copies execute innermost-offset-major, jam-offset
 * minor -- the in-block order jamLegal's condition assumes.
 */
void
emitRegisterTiled(std::ostream &c, const DependenceInfo &deps,
                  size_t d, const IVec &lo, const IVec &hi,
                  int64_t jam, int64_t unroll)
{
    size_t u = d - 1;          // innermost dim
    size_t j = d >= 2 ? d - 2 : 0; // jammed dim (unused when d == 1)

    auto stmt = [&](int64_t a, int64_t b) {
        std::vector<std::string> q = plainVars(d);
        if (d >= 2 && a > 0) {
            std::ostringstream oss;
            oss << "q" << j << " + " << a << "L";
            q[j] = oss.str();
        }
        if (b > 0) {
            std::ostringstream oss;
            oss << "q" << u << " + " << b << "L";
            q[u] = oss.str();
        }
        return emitStatement(deps, d, q);
    };

    // Innermost loop pair (main unrolled-by-U + remainder) with
    // `copies` jam copies per statement slot, at indent `lvl`.
    auto inner_loops = [&](int64_t copies, int lvl) {
        std::ostringstream s;
        s << "long q" << u << ";\n"
          << "for (q" << u << " = " << lo[u] << "L; q" << u << " + "
          << unroll - 1 << "L <= " << hi[u] << "L; q" << u
          << " += " << unroll << "L) {\n";
        for (int64_t b = 0; b < unroll; ++b)
            for (int64_t a = 0; a < copies; ++a)
                s << indented(stmt(a, b), 1);
        s << "}\n"
          << "for (; q" << u << " <= " << hi[u] << "L; ++q" << u
          << ") {\n";
        for (int64_t a = 0; a < copies; ++a)
            s << indented(stmt(a, 0), 1);
        s << "}\n";
        c << indented(s.str(), lvl);
    };

    if (d == 1) {
        inner_loops(1, 1);
        return;
    }

    // Outer dims 0..d-3 stay plain lexicographic loops.
    for (size_t k = 0; k < j; ++k)
        c << std::string(4 * (k + 1), ' ') << "for (long q" << k
          << " = " << lo[k] << "L; q" << k << " <= " << hi[k]
          << "L; ++q" << k << ") {\n";
    int lvl = static_cast<int>(j) + 1;

    std::ostringstream jl;
    jl << "long q" << j << ";\n"
       << "for (q" << j << " = " << lo[j] << "L; q" << j << " + "
       << jam - 1 << "L <= " << hi[j] << "L; q" << j << " += " << jam
       << "L) {\n";
    c << indented(jl.str(), lvl);
    inner_loops(jam, lvl + 1);
    c << std::string(4 * static_cast<size_t>(lvl), ' ') << "}\n";

    std::ostringstream rl;
    rl << "for (; q" << j << " <= " << hi[j] << "L; ++q" << j
       << ") {\n";
    c << indented(rl.str(), lvl);
    inner_loops(1, lvl + 1);
    c << std::string(4 * static_cast<size_t>(lvl), ' ') << "}\n";

    for (size_t k = j; k-- > 0;)
        c << std::string(4 * (k + 1), ' ') << "}\n";
}

/** The output: the final q0-hyperplane of the nest's box. */
void
outputPlane(const LoopNest &nest, IVec &lo, IVec &hi)
{
    lo = nest.lo();
    hi = nest.hi();
    lo[0] = hi[0];
}

} // namespace

int64_t
outputCellCount(const LoopNest &nest)
{
    IVec lo, hi;
    outputPlane(nest, lo, hi);
    return boxVolume(lo, hi);
}

std::vector<double>
interpretKernel(const LoopNest &nest)
{
    DependenceInfo deps = analyzeDependences(nest, 0);
    size_t d = nest.depth();
    ExpandedArray<double> vals(nest.lo(), nest.hi());
    auto bval = [&](const IVec &p) {
        int64_t acc = 1;
        for (size_t c = 0; c < p.dim(); ++c)
            acc += kBvalWeights[c] * p[c];
        return static_cast<double>(acc);
    };
    scanBox(nest.lo(), nest.hi(), [&](const IVec &q) {
        double v = 0.0;
        for (size_t k = 0; k < deps.reads.size(); ++k) {
            IVec p = q - deps.reads[k].distance;
            double in = vals.inBounds(p) ? vals.at(p) : bval(p);
            v += static_cast<double>(k + 1) * in;
        }
        v = 0.5 * v;
        for (size_t c = 0; c < d; ++c)
            v += (static_cast<double>(c + 1) / 1000.0) *
                 static_cast<double>(q[c]);
        vals.at(q) = v;
    });

    // Final q0-hyperplane, row-major over dims 1..d-1.
    std::vector<double> out;
    IVec plane_lo, plane_hi;
    outputPlane(nest, plane_lo, plane_hi);
    scanBox(plane_lo, plane_hi,
            [&](const IVec &p) { out.push_back(vals.at(p)); });
    return out;
}

GeneratedCode
generateC(const LoopNest &nest, const MappingPlan &plan,
          const CodegenOptions &options)
{
    size_t d = nest.depth();
    UOV_REQUIRE(d >= 1 && d <= 6, "codegen supports 1- to 6-D nests");
    UOV_REQUIRE(options.schedule != GenSchedule::SkewedTiled || d == 2,
                "skewed-tiled codegen currently targets 2-D nests "
                "(the paper's Section 4 setting); use Lexicographic "
                "for other depths");
    UOV_REQUIRE(nest.statements().size() >= 1, "empty nest");
    UOV_REQUIRE(validIdentifier(options.function_name),
                "function_name '" << options.function_name
                                  << "' is not a valid C identifier");

    // Validate the options against the schedule up front: silently
    // ignoring a knob (tile_sizes under Lexicographic) hides bugs in
    // the caller's sweep scripts.
    if (options.schedule == GenSchedule::SkewedTiled) {
        UOV_REQUIRE(options.tile_sizes.size() == 2,
                    "SkewedTiled needs exactly two tile sizes, got "
                        << options.tile_sizes.size());
        UOV_REQUIRE(options.tile_sizes[0] >= 1 &&
                        options.tile_sizes[1] >= 1,
                    "tile sizes must be >= 1, got {"
                        << options.tile_sizes[0] << ", "
                        << options.tile_sizes[1] << "}");
    } else {
        UOV_REQUIRE(options.tile_sizes.empty(),
                    "tile_sizes is only meaningful for the "
                    "SkewedTiled schedule; the "
                        << scheduleName(options.schedule)
                        << " schedule would silently ignore the "
                        << options.tile_sizes.size()
                        << " size(s) given");
    }
    if (options.schedule == GenSchedule::RegisterTiled) {
        UOV_REQUIRE(options.unroll >= 0 && options.unroll <= 64,
                    "unroll factor must be in [0, 64], got "
                        << options.unroll);
        UOV_REQUIRE(options.jam >= 0 && options.jam <= 64,
                    "jam factor must be in [0, 64], got "
                        << options.jam);
        UOV_REQUIRE(d >= 2 || options.jam <= 1,
                    "a 1-D nest has no second-innermost loop to jam "
                    "(jam=" << options.jam << ")");
    } else {
        UOV_REQUIRE(options.unroll == 0 && options.jam == 0,
                    "unroll/jam are only meaningful for the "
                    "RegisterTiled schedule; the "
                        << scheduleName(options.schedule)
                        << " schedule would silently ignore them");
    }

    const Statement &stmt = nest.statement(0);

    DependenceInfo deps = analyzeDependences(nest, 0);
    UOV_REQUIRE(deps.reads.size() == stmt.reads.size(),
                "codegen requires every read to reference the written "
                "array");
    for (const auto &rd : deps.reads)
        UOV_REQUIRE(rd.kind == ReadKind::LoopCarriedFlow,
                    "codegen requires flow-only reads; read "
                        << rd.read_index << " is an import");

    const IVec &lo = nest.lo();
    const IVec &hi = nest.hi();
    const StorageMapping &sm = plan.mapping;

    // The output convention reads the final q0-hyperplane after the
    // sweep.  Under OV-mapped storage that plane survives only when
    // the OV advances dimension 0: cells recur along q + Z*ov, so an
    // ov with ov[0] == 0 lets a later iteration in the same plane
    // overwrite a result before the copy-out runs.
    UOV_REQUIRE(options.storage != GenStorage::OvMapped ||
                    sm.ov()[0] >= 1,
                "OV-mapped codegen requires an occupancy vector that "
                "advances dimension 0 (the output hyperplane); ov "
                    << sm.ov().str()
                    << " would let in-plane iterations clobber the "
                       "output");

    // Register-tiling factors: explicit when given, otherwise from
    // the cost model fed by the mapping's live-cell count.  An
    // explicit jam must be legal; the model only proposes legal ones.
    int64_t unroll = 1, jam = 1;
    if (options.schedule == GenSchedule::RegisterTiled) {
        std::vector<IVec> dists;
        for (const auto &rd : deps.reads)
            dists.push_back(rd.distance);
        RegisterPlan rp = pickRegisterPlan(dists, d, 16,
                                           sm.cellCount());
        unroll = options.unroll > 0 ? options.unroll : rp.unroll;
        jam = options.jam > 0 ? options.jam : rp.jam;
        if (d >= 2 && options.jam > 0)
            UOV_REQUIRE(jamLegal(dists, d - 2, jam),
                        "jam factor " << jam
                            << " reorders a dependence of "
                            << plan.stencil.str()
                            << "; pick a smaller factor or let the "
                               "cost model choose");
    }

    // One row-major layout of the nest box: the expanded sm() indexes
    // through it, and the output copy through its strides over
    // dimensions 1..d-1.
    BoxLayout box(lo, hi);
    int64_t cells = options.storage == GenStorage::OvMapped
                        ? sm.cellCount()
                        : box.cells();

    // Output: the final hyperplane of dimension 0, linearized
    // row-major over dimensions 1..d-1 (a scalar when d == 1).
    int64_t out_cells = outputCellCount(nest);

    std::ostringstream c;
    c << "/* Generated by uov::generateC -- "
      << (options.storage == GenStorage::OvMapped
              ? "OV-mapped storage, "
              : "expanded storage, ")
      << scheduleName(options.schedule) << " schedule";
    if (options.schedule == GenSchedule::RegisterTiled)
        c << " (unroll=" << unroll << ", jam=" << jam << ")";
    c << ".\n"
      << " * nest: " << nest.str() << "\n"
      << " * stencil: " << plan.stencil.str() << ", uov: "
      << plan.search.best_uov.str() << "\n"
      << " * Boundary convention: an out-of-box point p has value\n"
      << " * bval(p) = 1 + sum_k w_k*p_k with w = {3,7,11,13,17,19}.\n"
      << " * Output: the final q0-hyperplane, row-major over the\n"
      << " * remaining dimensions (" << out_cells << " doubles).\n"
      << " */\n\n";

    c << "static double TMP[" << cells << "];\n\n";

    c << "static double bval(" << argList(d) << ")\n{\n    return "
      << "(double)(1";
    for (size_t k = 0; k < d; ++k)
        c << " + " << kBvalWeights[k] << "*q" << k;
    c << ");\n}\n\n";

    // Storage index function.
    c << "static long sm(" << argList(d) << ")\n{\n";
    if (options.storage == GenStorage::Expanded) {
        c << "    long idx = 0;\n";
        for (size_t k = 0; k < d; ++k)
            c << "    idx += (q" << k << " - " << lo[k] << "L)*"
              << box.stride(k) << "L;\n";
        c << "    return idx;\n";
    } else {
        c << "    long lin = 0;\n";
        for (size_t k = 0; k < sm.mappingVectors().size(); ++k) {
            c << "    lin += (" << linearExpr(sm.mappingVectors()[k])
              << " - " << sm.rowLow(k) << "L)*" << sm.rowStride(k)
              << "L;\n";
        }
        int64_t g = sm.modClasses();
        if (g == 1) {
            c << "    return lin;\n";
        } else {
            c << "    long cls = " << linearExpr(sm.alphaVector())
              << " % " << g << "L;\n"
              << "    if (cls < 0) cls += " << g << "L;\n";
            if (sm.layout() == ModLayout::Interleaved)
                c << "    return lin*" << g << "L + cls;\n";
            else
                c << "    return lin + cls*" << sm.modFactor()
                  << "L;\n";
        }
    }
    c << "}\n\n";

    c << "static double val(" << argList(d) << ")\n{\n    if (";
    for (size_t k = 0; k < d; ++k) {
        if (k)
            c << " && ";
        c << "q" << k << " >= " << lo[k] << "L && q" << k
          << " <= " << hi[k] << "L";
    }
    {
        std::vector<std::string> qs = plainVars(d);
        c << ")\n        return TMP[sm(" << callArgs(d, qs)
          << ")];\n    return bval(" << callArgs(d, qs) << ");\n}\n\n";
    }

    c << "void " << options.function_name << "(double *output)\n{\n";

    if (options.schedule == GenSchedule::Lexicographic) {
        for (size_t k = 0; k < d; ++k) {
            c << std::string(4 * (k + 1), ' ') << "for (long q" << k
              << " = " << lo[k] << "L; q" << k << " <= " << hi[k]
              << "L; ++q" << k << ") {\n";
        }
        c << indented(emitStatement(deps, d, plainVars(d)),
                      static_cast<int>(d) + 1);
        for (size_t k = d; k-- > 0;)
            c << std::string(4 * (k + 1), ' ') << "}\n";
    } else if (options.schedule == GenSchedule::RegisterTiled) {
        emitRegisterTiled(c, deps, d, lo, hi, jam, unroll);
    } else {
        IMatrix skew = skewToNonNegative(plan.stencil);
        int64_t f = skew(1, 0);
        int64_t ts0 = options.tile_sizes[0];
        int64_t ts1 = options.tile_sizes[1];
        int64_t y1_lo = f * lo[0] + lo[1];
        int64_t y1_hi = f * hi[0] + hi[1];
        c << "    /* skew y1 = " << f << "*q0 + q1; rectangular tiles "
          << ts0 << "x" << ts1 << " in (y0, y1) */\n"
          << "    for (long t0 = " << lo[0] << "L; t0 <= " << hi[0]
          << "L; t0 += " << ts0 << "L) {\n"
          << "        for (long t1 = " << y1_lo << "L; t1 <= " << y1_hi
          << "L; t1 += " << ts1 << "L) {\n"
          << "            long q0_hi = t0 + " << ts0 - 1 << "L < "
          << hi[0] << "L ? t0 + " << ts0 - 1 << "L : " << hi[0]
          << "L;\n"
          << "            for (long q0 = t0; q0 <= q0_hi; ++q0) {\n"
          << "                long y1a = " << f << "L*q0 + " << lo[1]
          << "L; if (y1a < t1) y1a = t1;\n"
          << "                long y1b = " << f << "L*q0 + " << hi[1]
          << "L; if (y1b > t1 + " << ts1 - 1 << "L) y1b = t1 + "
          << ts1 - 1 << "L;\n"
          << "                for (long y1 = y1a; y1 <= y1b; ++y1) {\n"
          << "                    long q1 = y1 - " << f << "L*q0;\n"
          << indented(emitStatement(deps, d, plainVars(d)), 5)
          << "                }\n"
          << "            }\n"
          << "        }\n    }\n";
    }

    // Emit the output copy: iterate dimensions 1..d-1.
    if (d == 1) {
        c << "    output[0] = TMP[sm(" << hi[0] << "L)];\n";
    } else {
        std::vector<std::string> qs;
        qs.push_back(std::to_string(hi[0]) + "L");
        for (size_t k = 1; k < d; ++k)
            qs.push_back(qvar(k));
        for (size_t k = 1; k < d; ++k) {
            c << std::string(4 * k, ' ') << "for (long q" << k << " = "
              << lo[k] << "L; q" << k << " <= " << hi[k] << "L; ++q"
              << k << ") {\n";
        }
        // Row-major output index over dims 1..d-1: for k >= 1 the
        // plane's strides are the box's.
        c << std::string(4 * d, ' ') << "output[0";
        for (size_t k = 1; k < d; ++k)
            c << " + (q" << k << " - " << lo[k] << "L)*"
              << box.stride(k) << "L";
        c << "] = TMP[sm(" << callArgs(d, qs) << ")];\n";
        for (size_t k = d; k-- > 1;)
            c << std::string(4 * k, ' ') << "}\n";
    }
    c << "}\n";

    GeneratedCode out;
    out.source = c.str();
    out.function_name = options.function_name;
    out.temp_cells = cells;
    out.unroll = unroll;
    out.jam = jam;
    return out;
}

CodeBundle
bundleUnits(const std::vector<GeneratedCode> &units)
{
    UOV_REQUIRE(!units.empty(), "bundleUnits needs at least one unit");
    std::vector<const GeneratedCode *> distinct;
    std::vector<size_t> slot;
    for (const GeneratedCode &unit : units) {
        size_t k = 0;
        while (k < distinct.size() && distinct[k]->source != unit.source)
            ++k;
        if (k == distinct.size())
            distinct.push_back(&unit);
        slot.push_back(k);
    }

    CodeBundle out;
    if (distinct.size() == 1) {
        out.source = distinct[0]->source;
        out.symbols.assign(units.size(), distinct[0]->function_name);
        return out;
    }
    std::ostringstream c;
    c << "/* " << distinct.size()
      << " generated units; unit k's file-scope names carry the suffix"
         " _k. */\n";
    for (size_t k = 0; k < distinct.size(); ++k) {
        std::vector<std::string> names(std::begin(kUnitFileScopeNames),
                                       std::end(kUnitFileScopeNames));
        names.push_back(distinct[k]->function_name);
        c << "\n";
        for (const std::string &name : names)
            c << "#define " << name << " " << name << "_" << k << "\n";
        c << distinct[k]->source;
        for (const std::string &name : names)
            c << "#undef " << name << "\n";
    }
    out.source = c.str();
    for (size_t k : slot)
        out.symbols.push_back(distinct[k]->function_name + "_" +
                              std::to_string(k));
    return out;
}

} // namespace uov
