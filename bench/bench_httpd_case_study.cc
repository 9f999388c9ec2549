/**
 * @file
 * Section 7.1's httpd case study, end to end: total gadget
 * population, PSR obfuscation rate, brute-force cost, JIT-ROP
 * survivors, and the HIPStR remainder. The paper: 169,272 gadgets
 * (SPEC-scale binary), 99.7% obfuscated, 1.8e32 brute-force
 * attempts, 84 JIT-ROP-viable, 2 surviving migration.
 */

#include <iostream>

#include "attack/brute_force.hh"
#include "attack/jitrop.hh"
#include "bench_util.hh"
#include "support/logging.hh"
#include "support/stats.hh"

using namespace hipstr;
using namespace hipstr::bench;

namespace
{

void
runCaseStudy()
{
    std::cout << "\n=== httpd case study ===\n";
    const FatBinary &bin = compiledWorkload("httpd", benchScale(2));
    // Single-workload study: the parallelism here comes from
    // studyGadgets' internal shards.
    PsrConfig cfg;
    GadgetStudy study =
        studyGadgets(bin, IsaKind::Cisc, cfg, benchTrials(3));
    uint32_t total = uint32_t(study.gadgets.size());

    BruteForceResult bf = simulateBruteForce(
        study.gadgets, study.verdicts, cfg.randSpaceBytes, false);

    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    PsrVm vm(bin, IsaKind::Cisc, mem, os, cfg);
    vm.reset();
    auto r = vm.run(1'000'000'000);
    if (r.reason != VmStop::Exited)
        hipstr_fatal("httpd run failed: %s", vmStopName(r.reason));
    JitRopResult jr = analyzeJitRop(vm, study.gadgets,
                                    study.verdicts);

    benchMetrics().counter("httpd.gadgets.total").set(total);
    benchMetrics()
        .counter("httpd.gadgets.unobfuscated")
        .set(study.unobfuscated);
    benchMetrics()
        .gauge("httpd.obfuscated_frac")
        .set(total ? 1.0 - double(study.unobfuscated) / total : 0);
    benchMetrics()
        .gauge("httpd.brute_force_attempts")
        .set(bf.attemptsNoBias);
    benchMetrics()
        .counter("httpd.jitrop.surviving_psr")
        .set(jr.survivingPsr);
    benchMetrics()
        .counter("httpd.jitrop.surviving_hipstr")
        .set(jr.survivingHipstr);

    TextTable table({ "Metric", "Measured", "Paper" });
    table.addRow({ "Total gadgets", std::to_string(total),
                   "169,272" });
    table.addRow(
        { "Obfuscated by PSR",
          formatPercent(total ? 1.0 -
                            double(study.unobfuscated) / total
                              : 0),
          "99.7%" });
    table.addRow({ "Brute-force attempts",
                   formatScientific(bf.attemptsNoBias), "1.8e32" });
    table.addRow({ "JIT-ROP viable",
                   std::to_string(jr.survivingPsr), "84" });
    table.addRow({ "Survive heterogeneous-ISA migration",
                   std::to_string(jr.survivingHipstr), "2" });
    table.print(std::cout);
    std::cout << "(absolute counts scale with binary size; the "
                 "funnel — population -> obfuscation -> JIT-ROP -> "
                 "migration — is the reproduced result)\n";

    bool shell_possible = jr.survivingHipstr >= 4;
    std::cout << "Four-gadget execve exploit from the HIPStR "
                 "survivors: "
              << (shell_possible ? "conceivable" : "impossible")
              << " (paper: insufficient even for the simplest "
                 "shellcode)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, "httpd_case_study", runCaseStudy);
}
