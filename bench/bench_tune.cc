/**
 * @file
 * The joint autotuner on the paper's workloads: score-over-time
 * trajectories (which candidate the tuner believed in, and when) on
 * the 5-point stencil, the 3-D heat equation, and a hard
 * PARTITION-reduction stencil, followed by a plot_benches.py summary
 * of the simulator-predicted win and -- when a host compiler is
 * available -- the JIT-measured speedup of the tuned configuration
 * over the default lexicographic OV-mapped kernel.
 *
 * The anytime contract is asserted on every case: a 0 ms deadline
 * must return a legal Degraded configuration, and the unbounded best
 * must never score worse than the candidate-0 baseline.
 */

#include "bench_common.h"

#include "codegen/jit.h"
#include "core/reduction.h"
#include "geometry/box.h"
#include "support/rng.h"
#include "tune/tune.h"

using namespace uov;

namespace {

struct Case
{
    std::string name;
    Stencil stencil;
    IVec lo;
    IVec hi;
};

/** One best-so-far improvement from TuneOptions::on_candidate. */
struct Improvement
{
    size_t index = 0;
    int64_t elapsed_us = 0;
    double score = 0.0;
    std::string spec;
};

/** A small PARTITION instance's reduction stencil (hard UOV search
 *  geometry, the same family bench_search_anytime sweeps). */
Stencil
partitionStencil()
{
    SplitMix64 rng(19981004);
    return buildReduction(bench::randomPartition(4, rng)).stencil;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseArgs(argc, argv);
    bench::banner("joint autotuning (UOV x schedule x factors) on "
                  "paper workloads");

    std::vector<Case> cases;
    if (opt.quick) {
        cases.push_back({"stencil5", stencils::fivePoint(), IVec{0, 0},
                         IVec{15, 127}});
        cases.push_back({"heat3d", stencils::heat3D(), IVec{0, 0, 0},
                         IVec{3, 7, 7}});
    } else {
        cases.push_back({"stencil5", stencils::fivePoint(), IVec{0, 0},
                         IVec{31, 255}});
        cases.push_back({"heat3d", stencils::heat3D(), IVec{0, 0, 0},
                         IVec{7, 15, 15}});
    }
    {
        Stencil part = partitionStencil();
        std::vector<int64_t> lo(part.dim(), 0), hi(part.dim(), 2);
        hi[0] = opt.quick ? 2 : 3;
        cases.push_back({"partition", part, IVec(std::move(lo)),
                         IVec(std::move(hi))});
    }

    // Diagnostic trajectory: one row per best-so-far improvement.
    // Its header is deliberately not a recognized size header, so
    // plot_benches.py starts at the summary table below.
    Table trajectory("Best-so-far trajectory (one row per improving "
                     "candidate)");
    trajectory.header({"case", "candidate", "elapsed us", "score",
                       "schedule"});

    Table summary("Tuned vs default configuration per workload");
    summary.header({"Problem Size", "candidates", "evaluated",
                    "lex sim cycles", "best sim cycles",
                    "tune ms", "deadline0 evaluated"});

    bool jit = JitCompiler::hostCompilerAvailable();
    Table measured("JIT-measured winner vs default lexicographic "
                   "OV-mapped kernel" +
                   std::string(jit ? "" : " (no host compiler; "
                                          "simulator only)"));
    measured.header({"case", "lex ns", "best ns", "speedup",
                     "winner"});

    bool sound = true;
    for (const Case &c : cases) {
        std::vector<Improvement> improvements;
        double best_so_far = 0.0;
        tune::TuneOptions topt;
        // PARTITION-reduction and 3-D searches can run long; a node
        // budget keeps the embedded UOV searches from eating the
        // whole wall-clock budget before any candidate is scored,
        // and the deadline turns the remainder into a certified
        // best-so-far instead of a hang.
        topt.budget.max_nodes = 20'000;
        topt.budget.deadline =
            Deadline::afterMillis(opt.quick ? 1000 : 2000);
        topt.on_candidate = [&](const tune::TuneCandidate &cand,
                                double score, size_t index,
                                int64_t elapsed_us) {
            if (improvements.empty() || score < best_so_far) {
                best_so_far = score;
                improvements.push_back(
                    {index, elapsed_us, score, cand.str()});
            }
        };

        tune::Tuner tuner(nestFromStencil(c.stencil, c.lo, c.hi,
                                          c.name),
                          topt);
        tune::TuneResult res = tuner.run();

        for (const Improvement &imp : improvements) {
            trajectory.addRow()
                .cell(c.name)
                .cell(static_cast<int64_t>(imp.index))
                .cell(imp.elapsed_us)
                .cell(imp.score, 0)
                .cell(imp.spec);
        }

        // The same case under a zero deadline: the anytime floor.
        tune::TuneOptions zero;
        zero.budget.deadline = Deadline::afterMillis(0);
        tune::Tuner floor_tuner(
            nestFromStencil(c.stencil, c.lo, c.hi, c.name), zero);
        tune::TuneResult floor = floor_tuner.run();

        sound = sound && res.evaluated >= 1 &&
                res.best.schedule.legal(c.stencil) &&
                res.best_score <= tuner.scores()[0] &&
                floor.degraded() && floor.evaluated >= 1 &&
                floor.best.schedule.legal(c.stencil);

        summary.addRow()
            .cell(boxVolume(c.lo, c.hi))
            .cell(static_cast<int64_t>(res.candidates_total))
            .cell(static_cast<int64_t>(res.evaluated))
            .cell(tuner.scores()[0], 0)
            .cell(res.best_score, 0)
            .cell(res.elapsed_us / 1000)
            .cell(static_cast<int64_t>(floor.evaluated));

        // Wall-clock truth for the lowerable workloads.  Tiny boxes
        // (the PARTITION reduction) are skipped: per-call time there
        // is dominated by call overhead, so a "speedup" would be
        // measurement noise, not the kernel.
        if (jit && boxVolume(c.lo, c.hi) >= 256 &&
            res.best.schedule.lower(c.stencil).has_value()) {
            tune::JitEvalOptions jopts;
            jopts.runs = opt.quick ? 3 : 5;
            tune::JitEvaluator jit_eval(jopts);
            LoopNest nest =
                nestFromStencil(c.stencil, c.lo, c.hi, c.name);
            tune::TuneContext ctx(nest, tuner.stencil());
            double lex_ns =
                jit_eval.score(ctx, tuner.candidates()[0]);
            double best_ns = jit_eval.score(ctx, res.best);
            measured.addRow()
                .cell(c.name)
                .cell(lex_ns, 0)
                .cell(best_ns, 0)
                .cell(lex_ns / best_ns)
                .cell(res.best.str());
        }
    }

    bench::emit(trajectory, opt);
    bench::emit(summary, opt);
    if (jit)
        bench::emit(measured, opt);

    // Keep the CSV stream pure tables for the plot script.
    if (!opt.csv)
        std::cout << "anytime contract held on every case: "
                  << (sound ? "yes" : "NO") << "\n";
    return sound ? 0 : 1;
}
