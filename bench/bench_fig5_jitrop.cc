/**
 * @file
 * Figure 5 — JIT-ROP attack surface under (a) single-ISA PSR and
 * (b) HIPStR.
 *
 * The program runs to steady state under the PSR VM, the attacker
 * discloses the code cache, and the surviving surface is measured:
 * discoverable gadgets (inside translated source ranges), gadgets
 * PSR fails to obfuscate, and the HIPStR remainder (gadgets starting
 * at already-translated dispatch targets, which avoid the
 * code-cache-miss migration trigger).
 */

#include <iostream>

#include "attack/jitrop.hh"
#include "bench_util.hh"
#include "support/logging.hh"
#include "support/stats.hh"

using namespace hipstr;
using namespace hipstr::bench;

namespace
{

void
runFigure5()
{
    std::cout << "\n=== Figure 5: JIT-ROP attack surface (Cisc) "
                 "===\n";
    TextTable table({ "Benchmark", "Classic", "Discoverable",
                      "Survive PSR", "Trigger migration",
                      "Survive HIPStR" });
    const std::vector<std::string> names =
        benchWorkloads(allWorkloadNames());
    auto cells = parallelMapItems(names, [](const std::string &name) {
        const FatBinary &bin = compiledWorkload(name, 1);
        PsrConfig cfg;
        GadgetStudy study =
            studyGadgets(bin, IsaKind::Cisc, cfg, benchTrials(3));

        Memory mem;
        loadFatBinary(bin, mem);
        GuestOs os;
        PsrVm vm(bin, IsaKind::Cisc, mem, os, cfg);
        vm.reset();
        auto r = vm.run(1'000'000'000);
        if (r.reason != VmStop::Exited)
            hipstr_fatal("steady-state run failed for %s",
                         name.c_str());

        return analyzeJitRop(vm, study.gadgets, study.verdicts);
    });
    auto &stages = benchMetrics().family("fig5.jitrop",
                                         { "workload", "stage" });
    uint64_t psr_total = 0, hipstr_total = 0;
    for (size_t i = 0; i < names.size(); ++i) {
        const JitRopResult &res = cells[i];
        psr_total += res.survivingPsr;
        hipstr_total += res.survivingHipstr;
        stages.at({ names[i], "classic" }).set(res.classicGadgets);
        stages.at({ names[i], "discoverable" })
            .set(res.discoverable);
        stages.at({ names[i], "survive_psr" })
            .set(res.survivingPsr);
        stages.at({ names[i], "trigger_migration" })
            .set(res.triggeringMigration);
        stages.at({ names[i], "survive_hipstr" })
            .set(res.survivingHipstr);
        table.addRow({ names[i], std::to_string(res.classicGadgets),
                       std::to_string(res.discoverable),
                       std::to_string(res.survivingPsr),
                       std::to_string(res.triggeringMigration),
                       std::to_string(res.survivingHipstr) });
    }
    benchMetrics().counter("fig5.surviving_psr.total").set(psr_total);
    benchMetrics()
        .counter("fig5.surviving_hipstr.total")
        .set(hipstr_total);
    table.print(std::cout);
    std::cout << "Averages: PSR survivors "
              << (psr_total / names.size()) << ", HIPStR survivors "
              << (hipstr_total / names.size())
              << "   (paper: 294 -> 27 on SPEC-scale binaries)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, "fig5_jitrop", runFigure5);
}
