/**
 * @file
 * Figure 3 — Classic ROP attack surface.
 *
 * For every benchmark: mine all gadgets (Galileo), execute each under
 * several PSR relocation maps, and report how many remain
 * unobfuscated. The paper reports PSR obfuscating an average 98.04%
 * of the attack surface.
 */

#include <iostream>

#include "bench_util.hh"
#include "support/stats.hh"

using namespace hipstr;
using namespace hipstr::bench;

namespace
{

void
runFigure3()
{
    std::cout << "\n=== Figure 3: Classic ROP attack surface (Cisc) "
                 "===\n";
    TextTable table({ "Benchmark", "Gadgets", "Obfuscated",
                      "Unobfuscated", "Obfuscated %" });
    const std::vector<std::string> names =
        benchWorkloads(allWorkloadNames());
    struct Cell
    {
        uint32_t total = 0;
        uint32_t unobfuscated = 0;
    };
    auto cells = parallelMapItems(names, [](const std::string &name) {
        const FatBinary &bin = compiledWorkload(name, 1);
        PsrConfig cfg;
        GadgetStudy study =
            studyGadgets(bin, IsaKind::Cisc, cfg, benchTrials(3));
        return Cell{ uint32_t(study.gadgets.size()),
                     study.unobfuscated };
    });
    auto &totals = benchMetrics().family("fig3.gadgets.total",
                                         { "workload" });
    auto &unobf = benchMetrics().family("fig3.gadgets.unobfuscated",
                                        { "workload" });
    double sum_frac = 0;
    for (size_t i = 0; i < names.size(); ++i) {
        uint32_t obf = cells[i].total - cells[i].unobfuscated;
        double frac =
            cells[i].total ? double(obf) / cells[i].total : 0;
        sum_frac += frac;
        totals.at({ names[i] }).set(cells[i].total);
        unobf.at({ names[i] }).set(cells[i].unobfuscated);
        table.addRow({ names[i], std::to_string(cells[i].total),
                       std::to_string(obf),
                       std::to_string(cells[i].unobfuscated),
                       formatPercent(frac) });
    }
    benchMetrics()
        .gauge("fig3.obfuscated_frac.avg")
        .set(sum_frac / double(names.size()));
    table.print(std::cout);
    std::cout << "Average obfuscated: "
              << formatPercent(sum_frac / double(names.size()))
              << "   (paper: 98.04%)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, "fig3_classic_rop", runFigure3);
}
