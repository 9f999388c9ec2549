/**
 * @file
 * Figure 10 — Performance effect of the stack randomization space
 * (PSR-S8 through PSR-S64: 8-64 KB of extra frame).
 *
 * The paper's observation: even 64 KB frames cost only ~2.96% more,
 * because the scattered slots leave large empty spans that never
 * touch the cache.
 */

#include <iostream>

#include "bench_util.hh"
#include "support/stats.hh"

using namespace hipstr;
using namespace hipstr::bench;

namespace
{

void
runFigure10()
{
    std::cout << "\n=== Figure 10: Randomization-space sweep (Cisc, "
                 "O3) ===\n";
    TextTable table({ "Benchmark", "PSR-S8", "PSR-S16", "PSR-S32",
                      "PSR-S64" });
    std::vector<std::vector<double>> columns(4);
    const uint32_t spaces[] = { 8u << 10, 16u << 10, 32u << 10,
                                64u << 10 };
    const std::vector<std::string> names =
        benchWorkloads(specWorkloadNames());
    const uint32_t scale = benchScale(perfWorkloadConfig().scale);
    auto rels = parallelMap(names.size() * 4, [&](size_t i) {
        const FatBinary &bin =
            compiledWorkload(names[i / 4], scale);
        PsrConfig cfg;
        cfg.randSpaceBytes = spaces[i % 4];
        cfg.seed = 11;
        return measurePerf(bin, IsaKind::Cisc, cfg).relative;
    });
    for (size_t w = 0; w < names.size(); ++w) {
        std::vector<std::string> row = { names[w] };
        for (unsigned i = 0; i < 4; ++i) {
            double rel = rels[w * 4 + i];
            columns[i].push_back(rel);
            row.push_back(formatPercent(rel));
        }
        table.addRow(row);
    }
    std::vector<std::string> means = { "geomean" };
    for (unsigned i = 0; i < 4; ++i) {
        means.push_back(formatPercent(geomean(columns[i])));
        benchMetrics()
            .gauge("fig10.relperf.s" +
                   std::to_string(spaces[i] >> 10) + ".geomean")
            .set(geomean(columns[i]));
    }
    table.addRow(means);
    table.print(std::cout);
    double drop = geomean(columns[0]) - geomean(columns[3]);
    benchMetrics().gauge("fig10.s8_to_s64_drop").set(drop);
    std::cout << "S8 -> S64 drop: " << formatPercent(drop)
              << "   (paper: 2.96%)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, "fig10_stack_entropy", runFigure10);
}
