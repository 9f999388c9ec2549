/**
 * @file
 * Figure 4 — Brute-force attack surface.
 *
 * Of all mined gadgets, how many still perform *some* useful state
 * population under PSR (and are therefore worth brute-forcing)? The
 * paper reports an average of 15.83% surviving.
 */

#include <iostream>

#include "bench_util.hh"
#include "support/stats.hh"

using namespace hipstr;
using namespace hipstr::bench;

namespace
{

void
runFigure4()
{
    std::cout << "\n=== Figure 4: Brute-force attack surface (Cisc) "
                 "===\n";
    TextTable table({ "Benchmark", "Gadgets", "Eliminated",
                      "Surviving", "Surviving %" });
    const std::vector<std::string> names =
        benchWorkloads(allWorkloadNames());
    struct Cell
    {
        uint32_t total = 0;
        uint32_t surviving = 0;
    };
    auto cells = parallelMapItems(names, [](const std::string &name) {
        const FatBinary &bin = compiledWorkload(name, 1);
        PsrConfig cfg;
        GadgetStudy study =
            studyGadgets(bin, IsaKind::Cisc, cfg, benchTrials(3));
        return Cell{ uint32_t(study.gadgets.size()),
                     study.surviving };
    });
    auto &totals = benchMetrics().family("fig4.gadgets.total",
                                         { "workload" });
    auto &surv = benchMetrics().family("fig4.gadgets.surviving",
                                       { "workload" });
    double sum_frac = 0;
    for (size_t i = 0; i < names.size(); ++i) {
        uint32_t total = cells[i].total;
        double frac = total ? double(cells[i].surviving) / total : 0;
        sum_frac += frac;
        totals.at({ names[i] }).set(total);
        surv.at({ names[i] }).set(cells[i].surviving);
        table.addRow({ names[i], std::to_string(total),
                       std::to_string(total - cells[i].surviving),
                       std::to_string(cells[i].surviving),
                       formatPercent(frac) });
    }
    benchMetrics()
        .gauge("fig4.surviving_frac.avg")
        .set(sum_frac / double(names.size()));
    table.print(std::cout);
    std::cout << "Average surviving: "
              << formatPercent(sum_frac / double(names.size()))
              << "   (paper: 15.83%)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, "fig4_brute_force", runFigure4);
}
