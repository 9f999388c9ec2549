/**
 * @file
 * Figure 12 — Migration overhead at random checkpoints.
 *
 * Each benchmark is fast-forwarded to ten random checkpoints; at the
 * next migration-safe equivalence point execution is forced onto the
 * other ISA and the PSR-aware state transformation cost recorded.
 * The paper reports 909 us toward x86 and 1.287 ms toward the
 * ARM-like core, a 0.32% baseline overhead.
 */

#include <iostream>

#include "bench_util.hh"
#include "hipstr/runtime.hh"
#include "support/random.hh"
#include "support/stats.hh"

using namespace hipstr;
using namespace hipstr::bench;

namespace
{

/** Average forced-migration cost starting from @p start ISA. */
double
measureMigrationUs(const FatBinary &bin, IsaKind start,
                   unsigned checkpoints)
{
    Rng rng(0x519 + static_cast<uint64_t>(start));
    double total_us = 0;
    unsigned measured = 0;
    for (unsigned c = 0; c < checkpoints; ++c) {
        Memory mem;
        loadFatBinary(bin, mem);
        GuestOs os;
        HipstrConfig cfg;
        cfg.startIsa = start;
        cfg.psr.seed = 100 + c;
        HipstrRuntime rt(bin, mem, os, cfg);
        rt.reset();
        uint64_t skip = 5'000 + rng.below(60'000);
        auto r = rt.vm(start).run(skip);
        if (r.reason != VmStop::StepLimit)
            continue; // program too short for this checkpoint
        MigrationOutcome mo = rt.forceMigration();
        if (mo.ok) {
            total_us += mo.microseconds;
            ++measured;
        }
    }
    return measured ? total_us / measured : 0;
}

void
runFigure12()
{
    std::cout << "\n=== Figure 12: Migration overhead at random "
                 "checkpoints ===\n";
    TextTable table({ "Benchmark", "ARM->x86 (us)",
                      "x86->ARM (us)" });
    const std::vector<std::string> names =
        benchWorkloads(specWorkloadNames());
    const unsigned checkpoints = benchCheckpoints(10);
    // (workload x direction) cells.
    auto costs = parallelMap(names.size() * 2, [&](size_t i) {
        const FatBinary &bin =
            compiledWorkload(names[i / 2], benchScale(2));
        IsaKind start =
            (i % 2) == 0 ? IsaKind::Risc : IsaKind::Cisc;
        return measureMigrationUs(bin, start, checkpoints);
    });
    double to_x86_sum = 0, to_arm_sum = 0;
    for (size_t w = 0; w < names.size(); ++w) {
        double to_x86 = costs[w * 2 + 0];
        double to_arm = costs[w * 2 + 1];
        to_x86_sum += to_x86;
        to_arm_sum += to_arm;
        benchMetrics()
            .gauge("fig12.migration_us.to_x86." + names[w])
            .set(to_x86);
        benchMetrics()
            .gauge("fig12.migration_us.to_arm." + names[w])
            .set(to_arm);
        table.addRow({ names[w], formatDouble(to_x86, 1),
                       formatDouble(to_arm, 1) });
    }
    benchMetrics()
        .gauge("fig12.migration_us.to_x86.avg")
        .set(to_x86_sum / double(names.size()));
    benchMetrics()
        .gauge("fig12.migration_us.to_arm.avg")
        .set(to_arm_sum / double(names.size()));
    table.addRow(
        { "average",
          formatDouble(to_x86_sum / double(names.size()), 1),
          formatDouble(to_arm_sum / double(names.size()), 1) });
    table.print(std::cout);
    std::cout << "(paper: 909 us ARM->x86, 1287 us x86->ARM; the "
                 "asymmetry follows the destination core's "
                 "frequency)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, "fig12_migration", runFigure12);
}
