/**
 * @file
 * Table 2 — Inferences from the brute-force simulation.
 *
 * Per benchmark: average randomizable parameters per gadget, average
 * per-gadget entropy in bits, and the expected attempts for the
 * four-gadget execve chain of Algorithm 1, with and without the
 * register bias. The paper's numbers (~6.7 params, ~87 bits,
 * ~10^33-10^34 attempts) come from gadget populations mined over full
 * SPEC binaries; magnitudes here scale with our smaller populations
 * while remaining computationally infeasible.
 */

#include <iostream>

#include "attack/brute_force.hh"
#include "bench_util.hh"
#include "support/stats.hh"

using namespace hipstr;
using namespace hipstr::bench;

namespace
{

void
runTable2()
{
    std::cout << "\n=== Table 2: Brute-force simulation (Cisc, 8 KB "
                 "frames) ===\n";
    TextTable table({ "Benchmark", "Rand. params (avg)",
                      "Entropy (bits)", "Attempts (no bias)",
                      "Attempts (reg bias)", "Chain found" });
    const std::vector<std::string> names =
        benchWorkloads(specWorkloadNames());
    auto cells = parallelMapItems(names, [](const std::string &name) {
        const FatBinary &bin = compiledWorkload(name, 1);
        PsrConfig cfg;
        GadgetStudy study =
            studyGadgets(bin, IsaKind::Cisc, cfg, benchTrials(3));
        return simulateBruteForce(study.gadgets, study.verdicts,
                                  cfg.randSpaceBytes, false);
    });
    auto &chain = benchMetrics().family("table2.chain_found",
                                        { "workload" });
    for (size_t i = 0; i < names.size(); ++i) {
        const BruteForceResult &res = cells[i];
        benchMetrics()
            .gauge("table2." + names[i] + ".avg_randomizable_params")
            .set(res.avgRandomizableParams);
        benchMetrics()
            .gauge("table2." + names[i] + ".entropy_bits")
            .set(res.avgEntropyBits);
        benchMetrics()
            .gauge("table2." + names[i] + ".attempts_no_bias")
            .set(res.attemptsNoBias);
        benchMetrics()
            .gauge("table2." + names[i] + ".attempts_reg_bias")
            .set(res.attemptsRegBias);
        chain.at({ names[i] }).set(res.chainFound ? 1 : 0);
        table.addRow({ names[i],
                       formatDouble(res.avgRandomizableParams),
                       formatDouble(res.avgEntropyBits, 1),
                       formatScientific(res.attemptsNoBias),
                       formatScientific(res.attemptsRegBias),
                       res.chainFound ? "yes" : "no" });
    }
    table.print(std::cout);
    std::cout << "(paper: ~6.5-6.9 params, 84-90 bits, ~1e33-1e34 "
                 "attempts on SPEC-scale binaries)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, "table2_brute_force", runTable2);
}
