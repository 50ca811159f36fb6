/**
 * @file
 * Shared plumbing for the per-table / per-figure bench binaries.
 *
 * Every binary prints the paper-style rows as an aligned table on
 * stdout; pass --csv for machine-readable output instead.  The header
 * of each binary's output names the paper artifact it regenerates.
 */

#ifndef UOV_BENCH_BENCH_COMMON_H
#define UOV_BENCH_BENCH_COMMON_H

#include <chrono>
#include <functional>
#include <future>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/reduction.h"
#include "sim/machine.h"
#include "sim/streaming.h"
#include "support/rng.h"
#include "support/table.h"
#include "support/thread_pool.h"
#include "support/trace.h"

namespace uov {
namespace bench {

/** Common command-line options. */
struct Options
{
    bool csv = false;   ///< emit CSV instead of aligned tables
    bool quick = false; ///< shrink sweeps (used by CI smoke runs)
};

inline Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--csv")
            o.csv = true;
        else if (a == "--quick")
            o.quick = true;
        else if (a == "--help" || a == "-h") {
            std::cout << "usage: " << argv[0] << " [--csv] [--quick]\n";
            std::exit(0);
        }
    }
    return o;
}

inline void
emit(const Table &t, const Options &o)
{
    if (o.csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);
    std::cout << "\n";
}

/** Banner naming the paper artifact being regenerated. */
inline void
banner(const std::string &what)
{
    std::cout << "# Strout et al., ASPLOS 1998 -- reproducing " << what
              << "\n\n";
}

/**
 * The three testbed machines.  @p memory_scale shrinks physical
 * memory so the paper's out-of-memory regime appears within a sweep
 * that simulates in seconds (documented per bench).
 */
inline std::vector<MachineConfig>
paperMachines(double memory_scale = 1.0)
{
    std::vector<MachineConfig> machines = {MachineConfig::pentiumPro(),
                                           MachineConfig::ultra2(),
                                           MachineConfig::alpha21164()};
    for (auto &m : machines) {
        auto scaled = static_cast<int64_t>(
            static_cast<double>(m.memory_bytes) * memory_scale);
        m.memory_bytes = std::max<int64_t>(scaled, m.page_bytes * 16);
    }
    return machines;
}

/**
 * One fused simulation pass: per-machine cycle totals plus the raw
 * material for throughput reporting.  `machines` holds indices into
 * the bench's machine vector; `cycles[k]` is machines[k]'s total.
 */
struct FusedRun
{
    std::vector<size_t> machines;
    std::vector<double> cycles;
    uint64_t events = 0; ///< simulated events applied, all machines
    double wall_ns = 0;
};

/**
 * Run @p kernel once, streaming every event into the machines named
 * by @p group (indices into @p machines) simultaneously.  The caller
 * must only group machines that would observe the same address
 * stream: the scaling benches tune tile sizes to each machine's L1,
 * so tiled variants are grouped by tile configuration while untiled
 * variants fuse all machines into a single kernel pass.
 */
template <typename KernelFn>
FusedRun
runFusedGroup(const std::vector<MachineConfig> &machines,
              std::vector<size_t> group, KernelFn &&kernel)
{
    std::vector<MachineConfig> cfgs;
    cfgs.reserve(group.size());
    for (size_t i : group)
        cfgs.push_back(machines[i]);
    MultiMachineSim sim(cfgs);
    StreamingSim mem = sim.policy();
    VirtualArena arena;
    trace::Span span("sim.fused_pass");
    span.arg("machines", static_cast<int64_t>(cfgs.size()));
    auto start = std::chrono::steady_clock::now();
    kernel(mem, arena);
    auto stop = std::chrono::steady_clock::now();
    sim.traceCycleCounters();
    span.arg("events", static_cast<int64_t>(sim.eventsProcessed()));

    FusedRun r;
    r.machines = std::move(group);
    r.cycles.reserve(r.machines.size());
    for (size_t k = 0; k < r.machines.size(); ++k)
        r.cycles.push_back(sim.system(k).cycles());
    r.events = sim.eventsProcessed();
    r.wall_ns =
        std::chrono::duration<double, std::nano>(stop - start).count();
    return r;
}

/**
 * Millions of simulated events per second for aggregated fused runs
 * (events summed across machines; time summed across tasks, so with
 * the pool saturating every core this is per-core throughput).
 */
inline double
mEventsPerSec(double events, double wall_ns)
{
    return wall_ns > 0 ? events * 1000.0 / wall_ns : 0.0;
}

/** Requests per second: @p requests answered in @p wall_ns. */
inline double
qps(size_t requests, double wall_ns)
{
    return wall_ns > 0 ? static_cast<double>(requests) * 1e9 / wall_ns
                       : 0.0;
}

/**
 * Seeded PARTITION instance of @p n values in [1, 10], the last one
 * bumped to make the sum even.  bench_fig4_search_bound and
 * bench_search_anytime draw from the same seed, so they sweep the same
 * hard instances; bench_tune takes one small instance.
 */
inline PartitionInstance
randomPartition(size_t n, SplitMix64 &rng)
{
    PartitionInstance inst;
    for (size_t i = 0; i < n; ++i)
        inst.values.push_back(
            1 + static_cast<int64_t>(rng.nextInRange(0, 9)));
    int64_t total = 0;
    for (int64_t v : inst.values)
        total += v;
    if (total % 2)
        inst.values.back() += 1;
    return inst;
}

/** Header label of the throughput column the scaling benches emit. */
inline const char *const kThroughputHeader = "MEvents/s";

/**
 * The testbeds of the scaling sweeps (Figures 9-14 and the heat3d
 * extension).  Physical memory is 8 / 16 / 32 MiB (PPro / Ultra2 /
 * Alpha), so the paper's "falls out of memory" regime appears inside
 * a sweep that simulates in seconds.
 */
inline std::vector<MachineConfig>
scalingMachines()
{
    auto machines = paperMachines();
    machines[0].memory_bytes = 8ll << 20;  // PentiumPro
    machines[1].memory_bytes = 16ll << 20; // Ultra2
    machines[2].memory_bytes = 32ll << 20; // Alpha
    return machines;
}

/**
 * A scaling sweep: every variant of one paper kernel at every problem
 * size on every machine, reported as cycles per iteration in one table
 * per machine.  The bench supplies the sizes, its kernel's variant
 * table and these hooks; runSweep() does the rest.
 */
template <typename Variant, typename Config>
struct Sweep
{
    std::vector<int64_t> sizes;
    std::vector<Variant> variants;
    const char *(*name)(Variant);
    bool (*tiled)(Variant);
    /// The kernel config for one machine at one problem size.
    Config (*config)(const MachineConfig &, int64_t size);
    /// Iterations of one kernel pass under a config.
    double (*iterations)(const Config &);
    /// Title of the table for machine @p mi.
    std::string (*title)(size_t mi, const MachineConfig &,
                         const Config &);
    /// Header and cells of the table's first column.
    const char *size_header;
    std::string (*size_label)(int64_t size);
};

/** Cycles per iteration of a finished sweep. */
template <typename Variant>
struct SweepResult
{
    std::vector<Variant> variants;
    /// per_iter[machine][size][variant]
    std::vector<std::vector<std::vector<double>>> per_iter;

    double
    perIteration(size_t mi, size_t si, Variant v) const
    {
        for (size_t vi = 0; vi < variants.size(); ++vi)
            if (variants[vi] == v)
                return per_iter[mi][si][vi];
        return 0;
    }
};

/**
 * Run @p sweep on @p machines and print its tables.  Every (size,
 * variant, machine group) is one task on the shared pool, and each
 * task streams one kernel pass, kernel(variant, config, mem, arena),
 * into every machine of its group (runFusedGroup): all machines for an
 * untiled variant, machines with equal configs for a tiled one (the
 * tiles are tuned to each machine's L1).  No trace is materialized and
 * no kernel pass is repeated per machine.  The MEvents/s column is the
 * aggregate simulation throughput of a row's runs (events summed
 * across machines / task wall time summed, i.e. per-core).
 */
template <typename Variant, typename Config, typename KernelFn>
SweepResult<Variant>
runSweep(const Sweep<Variant, Config> &sweep,
         const std::vector<MachineConfig> &machines, const Options &opt,
         KernelFn kernel)
{
    const size_t n_sizes = sweep.sizes.size();
    const size_t n_variants = sweep.variants.size();
    struct Task
    {
        size_t si, vi;
        double iterations;
        std::future<FusedRun> run;
    };
    std::vector<Task> tasks;
    for (size_t si = 0; si < n_sizes; ++si) {
        for (size_t vi = 0; vi < n_variants; ++vi) {
            Variant v = sweep.variants[vi];
            std::vector<std::pair<Config, std::vector<size_t>>> groups;
            for (size_t mi = 0; mi < machines.size(); ++mi) {
                Config cfg = sweep.config(machines[mi], sweep.sizes[si]);
                auto g = groups.begin();
                while (g != groups.end() && sweep.tiled(v) &&
                       g->first != cfg)
                    ++g;
                if (g == groups.end())
                    groups.push_back({cfg, {mi}});
                else
                    g->second.push_back(mi);
            }
            for (auto &[cfg, group] : groups) {
                tasks.push_back(
                    {si, vi, sweep.iterations(cfg),
                     ThreadPool::shared().submit(
                         [&machines, kernel, group, cfg, v] {
                             return runFusedGroup(
                                 machines, group,
                                 [&](StreamingSim &mem,
                                     VirtualArena &arena) {
                                     kernel(v, cfg, mem, arena);
                                 });
                         })});
            }
        }
    }

    SweepResult<Variant> result{
        sweep.variants,
        std::vector<std::vector<std::vector<double>>>(
            machines.size(),
            std::vector<std::vector<double>>(
                n_sizes, std::vector<double>(n_variants, 0)))};
    std::vector<double> row_events(n_sizes, 0);
    std::vector<double> row_ns(n_sizes, 0);
    for (Task &task : tasks) {
        FusedRun r = task.run.get();
        for (size_t k = 0; k < r.machines.size(); ++k)
            result.per_iter[r.machines[k]][task.si][task.vi] =
                r.cycles[k] / task.iterations;
        row_events[task.si] += static_cast<double>(r.events);
        row_ns[task.si] += r.wall_ns;
    }

    for (size_t mi = 0; mi < machines.size(); ++mi) {
        Table t(sweep.title(mi, machines[mi],
                            sweep.config(machines[mi], sweep.sizes[0])));
        std::vector<std::string> header = {sweep.size_header};
        for (Variant v : sweep.variants)
            header.push_back(sweep.name(v));
        header.push_back(kThroughputHeader);
        t.header(header);
        for (size_t si = 0; si < n_sizes; ++si) {
            auto row = t.addRow();
            row.cell(sweep.size_label(sweep.sizes[si]));
            for (size_t vi = 0; vi < n_variants; ++vi)
                row.cell(result.per_iter[mi][si][vi], 1);
            row.cell(mEventsPerSec(row_events[si], row_ns[si]), 2);
        }
        emit(t, opt);
    }
    return result;
}

/** Median wall-clock nanoseconds of fn() over @p reps runs. */
inline double
measureNs(const std::function<void()> &fn, int reps = 5)
{
    std::vector<double> samples;
    samples.reserve(static_cast<size_t>(reps));
    for (int r = 0; r < reps; ++r) {
        auto start = std::chrono::steady_clock::now();
        fn();
        auto stop = std::chrono::steady_clock::now();
        samples.push_back(
            std::chrono::duration<double, std::nano>(stop - start)
                .count());
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

} // namespace bench
} // namespace uov

#endif // UOV_BENCH_BENCH_COMMON_H
