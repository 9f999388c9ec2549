/**
 * @file
 * Figure 7 — Entropy comparison vs. gadget-chain length.
 *
 * Diversification-only defenses (Isomeron, bare heterogeneous-ISA
 * migration) stack one bit per chain link — 8 gadgets means one
 * success in 256 attempts. The PSR hybrids stack the measured
 * per-gadget relocation entropy on top and leave the chart almost
 * immediately.
 */

#include <cmath>
#include <iostream>

#include "attack/brute_force.hh"
#include "attack/tailored.hh"
#include "bench_util.hh"
#include "support/stats.hh"

using namespace hipstr;
using namespace hipstr::bench;

namespace
{

void
runFigure7()
{
    // Measure the average per-gadget PSR entropy across the SPEC-like
    // set (Table 2's column feeds this figure).
    const std::vector<std::string> names =
        benchWorkloads(specWorkloadNames());
    auto bits = parallelMapItems(names, [](const std::string &name) {
        const FatBinary &bin = compiledWorkload(name, 1);
        PsrConfig cfg;
        GadgetStudy study =
            studyGadgets(bin, IsaKind::Cisc, cfg, benchTrials(3));
        return study.avgParams *
            std::log2(double(cfg.randSpaceBytes));
    });
    double entropy_sum = 0;
    for (size_t i = 0; i < names.size(); ++i) {
        entropy_sum += bits[i];
        benchMetrics()
            .gauge("fig7.entropy_bits." + names[i])
            .set(bits[i]);
    }
    double avg_bits = entropy_sum / double(names.size());
    benchMetrics().gauge("fig7.entropy_bits.avg").set(avg_bits);

    std::cout << "\n=== Figure 7: Entropy vs gadget-chain length "
                 "===\n";
    std::cout << "Measured per-gadget PSR entropy: "
              << formatDouble(avg_bits, 1) << " bits (paper: ~87)\n";
    auto curves = entropyComparison(avg_bits);
    TextTable table({ "Chain length", curves[0].name, curves[1].name,
                      curves[2].name, curves[3].name });
    for (unsigned i = 0; i < curves[0].bitsAtChainLength.size();
         ++i) {
        table.addRow(
            { std::to_string(i + 1),
              formatDouble(curves[0].bitsAtChainLength[i], 0) +
                  " bits",
              formatDouble(curves[1].bitsAtChainLength[i], 0) +
                  " bits",
              formatDouble(curves[2].bitsAtChainLength[i], 0) +
                  " bits",
              formatDouble(curves[3].bitsAtChainLength[i], 0) +
                  " bits" });
    }
    table.print(std::cout);
    std::cout << "(An 8-link chain on Isomeron alone: 2^8 = 256 "
                 "states — one brute-force success per 256 attempts, "
                 "the paper's example.)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, "fig7_entropy", runFigure7);
}
