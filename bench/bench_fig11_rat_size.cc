/**
 * @file
 * Figure 11 — Performance overhead vs. hardware Return Address Table
 * size (32-2048 entries).
 *
 * The paper: 0.37% average overhead even at 32 entries, nothing
 * noticeable from 512 up — call/return distances are short, so the
 * RAT rarely misses.
 */

#include <iostream>

#include "bench_util.hh"
#include "support/stats.hh"

using namespace hipstr;
using namespace hipstr::bench;

namespace
{

void
runFigure11()
{
    std::cout << "\n=== Figure 11: RAT size sweep (Cisc, O3) ===\n";
    const unsigned sizes[] = { 32, 64, 128, 256, 512, 1024, 2048 };
    TextTable table({ "Benchmark", "32", "64", "128", "256", "512",
                      "1024", "2048" });
    std::vector<std::vector<double>> overhead(7);
    const std::vector<std::string> names =
        benchWorkloads(specWorkloadNames());
    const uint32_t scale = benchScale(perfWorkloadConfig().scale);
    // 8 cells per workload: the 2048-entry baseline plus the 7 sweep
    // points, all independent measurements.
    auto rels = parallelMap(names.size() * 8, [&](size_t i) {
        const FatBinary &bin =
            compiledWorkload(names[i / 8], scale);
        PsrConfig cfg;
        cfg.ratEntries = (i % 8) == 0 ? 2048 : sizes[i % 8 - 1];
        cfg.seed = 11;
        return measurePerf(bin, IsaKind::Cisc, cfg).relative;
    });
    for (size_t w = 0; w < names.size(); ++w) {
        double best = rels[w * 8];
        std::vector<std::string> row = { names[w] };
        for (unsigned i = 0; i < 7; ++i) {
            double rel = rels[w * 8 + 1 + i];
            double pct = (best - rel) / best;
            overhead[i].push_back(pct);
            row.push_back(formatPercent(pct));
        }
        table.addRow(row);
    }
    std::vector<std::string> means = { "average" };
    for (unsigned i = 0; i < 7; ++i) {
        double sum = 0;
        for (double v : overhead[i])
            sum += v;
        benchMetrics()
            .gauge("fig11.overhead.rat" + std::to_string(sizes[i]) +
                   ".avg")
            .set(sum / overhead[i].size());
        means.push_back(formatPercent(sum / overhead[i].size()));
    }
    table.addRow(means);
    table.print(std::cout);
    std::cout << "(overhead relative to a 2048-entry RAT; paper: "
                 "0.37% at 32 entries, ~0 from 512 up)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, "fig11_rat_size", runFigure11);
}
