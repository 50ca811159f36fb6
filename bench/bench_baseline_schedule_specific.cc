/**
 * @file
 * Baseline comparison (Section 6): schedule-specific storage
 * optimization in the style of Lefebvre/Feautrier -- the OV is chosen
 * for ONE given schedule -- vs the UOV, vs full expansion.  Quantifies
 * the paper's trade-off: the UOV costs slightly more storage than the
 * schedule-specific optimum but survives every legal schedule.
 */

#include "bench_common.h"

#include "analysis/live_range.h"
#include "core/search.h"
#include "core/storage_count.h"
#include "core/uov.h"
#include "mapping/modular_mapping.h"
#include "schedule/executor.h"
#include "schedule/schedule_specific.h"

using namespace uov;

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseArgs(argc, argv);
    bench::banner("Section 6 baseline (schedule-specific storage vs "
                  "UOV vs expansion)");

    Polyhedron isg = Polyhedron::box(IVec{0, 0}, IVec{64, 1024});
    int64_t expanded = 65 * 1025;

    Table t("Storage cells over a 64 x 1024 ISG");
    t.header({"stencil", "schedule h", "schedule-specific ov", "cells",
              "uov", "cells", "expanded"});

    struct Case
    {
        Stencil stencil;
        IVec h;
    };
    const Case cases[] = {
        {stencils::simpleExample(), IVec{2, 1}},
        {stencils::simpleExample(), IVec{1, 2}},
        {stencils::fivePoint(), IVec{3, 1}},
        {stencils::fivePoint(), IVec{5, 1}},
        {stencils::proteinMatching(), IVec{1, 1}},
    };
    for (const Case &c : cases) {
        ScheduleSpecificResult spec =
            bestOvForLinearSchedule(c.h, c.stencil, isg);
        SearchOptions sopts;
        sopts.isg = isg;
        SearchResult uov = BranchBoundSearch(
                               c.stencil,
                               SearchObjective::BoundedStorage, sopts)
                               .run();
        t.addRow()
            .cell(c.stencil.str())
            .cell(c.h.str())
            .cell(spec.ov.str())
            .cell(formatCount(spec.objective))
            .cell(uov.best_uov.str())
            .cell(formatCount(uov.best_objective))
            .cell(formatCount(expanded));
    }
    bench::emit(t, opt);

    // Flexibility: re-schedule each storage choice under a family of
    // wavefronts and count survivors.
    Table f("Survival under re-scheduling (8 legal wavefronts, "
            "simple-example stencil)");
    f.header({"storage", "ov", "schedules correct"});
    Stencil s = stencils::simpleExample();
    StencilComputation comp(s);
    // Elongated ISG: the schedule-specific optimum becomes a (0,k)
    // vector whose single-row projection beats the anti-diagonal.
    IVec lo{0, 0}, hi{6, 40};
    std::vector<IVec> waves;
    for (int64_t a = 1; a <= 4; ++a)
        for (int64_t b = 1; b <= 2; ++b)
            waves.push_back(IVec{a, b});

    auto survivors = [&](const IVec &ov) {
        int count = 0;
        for (const auto &h : waves) {
            ExecutionResult r = runWithOvStorage(
                comp, AffineSchedule({h}), lo, hi, ov);
            if (r.correct())
                ++count;
        }
        return count;
    };

    Polyhedron small_isg = Polyhedron::box(lo, hi);
    ScheduleSpecificResult spec =
        bestOvForLinearSchedule(IVec{2, 1}, s, small_isg);
    SearchResult uov =
        BranchBoundSearch(s, SearchObjective::ShortestVector).run();
    f.addRow()
        .cell("schedule-specific (h=(2,1), storage objective)")
        .cell(spec.ov.str())
        .cell(std::to_string(survivors(spec.ov)) + "/" +
              std::to_string(waves.size()));
    f.addRow()
        .cell("universal")
        .cell(uov.best_uov.str())
        .cell(std::to_string(survivors(uov.best_uov)) + "/" +
              std::to_string(waves.size()));
    bench::emit(f, opt);

    std::cout << "the UOV's storage premium buys schedule freedom -- "
                 "the paper's thesis in one table.\n\n";

    // Modular (q mod m) storage, the other schedule-given discipline:
    // universally safe moduli are (near-)trivial for real stencils,
    // while OV lines stay small -- rectangular lattice reuse needs
    // the schedule, freely oriented line reuse does not.
    Table m("Modular vs OV storage over a 24 x 24 ISG");
    m.header({"stencil", "universal moduli", "cells",
              "moduli for wavefront", "cells", "uov cells"});
    IVec mlo{0, 0}, mhi{23, 23};
    Polyhedron misg = Polyhedron::box(mlo, mhi);
    for (const Stencil &st :
         {stencils::simpleExample(), Stencil({IVec{1, 0}}),
          stencils::fivePoint()}) {
        IVec hw{st.maxAbsCoord() + 1, 1}; // legal wavefront
        ModuliSearchResult univ = universallySafeModuli(st, mlo, mhi);
        ModuliSearchResult sched =
            scheduleSpecificModuli(hw, st, mlo, mhi);
        SearchOptions so;
        so.isg = misg;
        SearchResult uov2 =
            BranchBoundSearch(st, SearchObjective::BoundedStorage, so)
                .run();
        m.addRow()
            .cell(st.str())
            .cell(univ.moduli.str() +
                  (univ.trivial ? " (trivial)" : ""))
            .cell(formatCount(univ.cells))
            .cell(sched.moduli.str())
            .cell(formatCount(sched.cells))
            .cell(formatCount(uov2.best_objective));
    }
    bench::emit(m, opt);

    // How close each discipline sits to the information-theoretic
    // floor: the peak number of simultaneously live values.
    Table l("Storage vs live-value lower bound (simple example, "
            "16 x 16 ISG)");
    l.header({"schedule", "max live (bound)", "schedule-specific ov",
              "uov cells"});
    {
        Stencil st = stencils::simpleExample();
        IVec llo{1, 1}, lhi{16, 16};
        Polyhedron lisg = Polyhedron::box(llo, lhi);
        SearchOptions so;
        so.isg = lisg;
        int64_t uov_cells =
            BranchBoundSearch(st, SearchObjective::BoundedStorage, so)
                .run()
                .best_objective;
        for (const IVec &h : {IVec{2, 1}, IVec{1, 1}, IVec{1, 3}}) {
            LiveRangeResult lr =
                maxLiveValues(AffineSchedule({h}), llo, lhi, st);
            ScheduleSpecificResult sp =
                bestOvForLinearSchedule(h, st, lisg);
            l.addRow()
                .cell("wavefront " + h.str())
                .cell(lr.max_live)
                .cell(formatCount(sp.objective))
                .cell(formatCount(uov_cells));
        }
        LiveRangeResult lex_lr =
            maxLiveValues(TiledSchedule(IMatrix::identity(2)), llo, lhi,
                          st);
        l.addRow()
            .cell("lex (original)")
            .cell(lex_lr.max_live)
            .cell("m+2 (Fig 1c)")
            .cell(formatCount(uov_cells));
    }
    bench::emit(l, opt);
    return 0;
}
