/**
 * @file
 * Figure 6 — Percentage of migration-safe basic blocks.
 *
 * Static classification of every machine block: baseline equivalence
 * points (prior work's discipline; the paper reports ~45%) versus the
 * on-demand extension (paper: ~78% in each direction).
 */

#include <iostream>

#include "bench_util.hh"
#include "migration/safety.hh"
#include "support/logging.hh"
#include "support/stats.hh"

using namespace hipstr;
using namespace hipstr::bench;

namespace
{

void
runFigure6()
{
    std::cout << "\n=== Figure 6: Migration-safe basic blocks ===\n";
    TextTable table({ "Benchmark", "Blocks", "Baseline-safe",
                      "On-demand-safe", "Baseline %", "On-demand %" });
    const std::vector<std::string> names =
        benchWorkloads(allWorkloadNames());
    auto cells = parallelMapItems(names, [](const std::string &name) {
        const FatBinary &bin = compiledWorkload(name, 1);
        // The classification is ISA-symmetric by construction (it
        // reads IR-level facts); report the Cisc side and verify the
        // Risc side agrees.
        SafetyStats cisc = analyzeMigrationSafety(bin, IsaKind::Cisc);
        SafetyStats risc = analyzeMigrationSafety(bin, IsaKind::Risc);
        if (cisc.totalBlocks != risc.totalBlocks)
            hipstr_warn("block counts differ across ISAs for %s",
                        name.c_str());
        return cisc;
    });
    auto &blocks = benchMetrics().family("fig6.blocks",
                                         { "workload", "class" });
    double base_sum = 0, od_sum = 0;
    for (size_t i = 0; i < names.size(); ++i) {
        const SafetyStats &cisc = cells[i];
        base_sum += cisc.baselineFraction();
        od_sum += cisc.onDemandFraction();
        blocks.at({ names[i], "total" }).set(cisc.totalBlocks);
        blocks.at({ names[i], "baseline_safe" })
            .set(cisc.baselineSafe);
        blocks.at({ names[i], "ondemand_safe" })
            .set(cisc.onDemandSafe);
        table.addRow({ names[i], std::to_string(cisc.totalBlocks),
                       std::to_string(cisc.baselineSafe),
                       std::to_string(cisc.onDemandSafe),
                       formatPercent(cisc.baselineFraction()),
                       formatPercent(cisc.onDemandFraction()) });
    }
    benchMetrics()
        .gauge("fig6.baseline_frac.avg")
        .set(base_sum / double(names.size()));
    benchMetrics()
        .gauge("fig6.ondemand_frac.avg")
        .set(od_sum / double(names.size()));
    table.print(std::cout);
    std::cout << "Averages: baseline "
              << formatPercent(base_sum / double(names.size()))
              << ", on-demand "
              << formatPercent(od_sum / double(names.size()))
              << "   (paper: 45% -> 78%)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, "fig6_migration_safe", runFigure6);
}
