/**
 * @file
 * Figure 8 — Tailored attacks: usable JIT-ROP surface vs.
 * diversification probability.
 *
 * An attacker aware of the diversification interleaves
 * diversification-invariant gadgets. Same-ISA invariance (measured by
 * comparing effects across program variants) leaves Isomeron-based
 * systems with a large floor; cross-ISA invariance (the same bytes
 * decoding to an equivalent gadget under both ISAs) is nearly empty,
 * which is HIPStR's punchline: at p=1 its surface collapses to a
 * handful of gadgets or none.
 */

#include <iostream>

#include "attack/jitrop.hh"
#include "attack/tailored.hh"
#include "bench_util.hh"
#include "support/stats.hh"

using namespace hipstr;
using namespace hipstr::bench;

namespace
{

void
runFigure8()
{
    // Aggregate the cache-resident surface and invariance counts over
    // the benchmark set.
    const std::vector<std::string> names =
        benchWorkloads(allWorkloadNames());
    struct Cell
    {
        JitRopResult jr;
        InvarianceCensus inv;
    };
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
        (void)vm.run(1'000'000'000);
        Cell c;
        c.jr = analyzeJitRop(vm, study.gadgets, study.verdicts);
        c.inv = measureInvariance(bin, mem, study.gadgets,
                                  study.verdicts);
        return c;
    });
    uint32_t cache_resident = 0, psr_surviving = 0;
    InvarianceCensus inv_total;
    unsigned zero_surface = 0;
    for (const Cell &c : cells) {
        cache_resident += c.jr.discoverable;
        psr_surviving += c.jr.survivingPsr;
        inv_total.total += c.inv.total;
        inv_total.sameIsaInvariant += c.inv.sameIsaInvariant;
        inv_total.crossIsaInvariant += c.inv.crossIsaInvariant;
        if (c.inv.crossIsaInvariant == 0)
            ++zero_surface;
    }

    benchMetrics()
        .counter("fig8.invariance.total")
        .set(inv_total.total);
    benchMetrics()
        .counter("fig8.invariance.same_isa")
        .set(inv_total.sameIsaInvariant);
    benchMetrics()
        .counter("fig8.invariance.cross_isa")
        .set(inv_total.crossIsaInvariant);
    benchMetrics()
        .counter("fig8.zero_surface_apps")
        .set(zero_surface);
    benchMetrics()
        .counter("fig8.cache_resident.total")
        .set(cache_resident);
    benchMetrics()
        .counter("fig8.psr_surviving.total")
        .set(psr_surviving);

    std::cout << "\n=== Figure 8: Surface vs diversification "
                 "probability ===\n";
    std::cout << "Invariance census: " << inv_total.total
              << " gadgets, " << inv_total.sameIsaInvariant
              << " same-ISA invariant, "
              << inv_total.crossIsaInvariant
              << " cross-ISA invariant\n";
    std::cout << zero_surface << "/" << names.size()
              << " applications have zero cross-ISA-invariant "
                 "gadgets (paper: 5/8)\n";

    auto curves = surfaceVsDiversification(
        cache_resident, psr_surviving, inv_total);
    std::vector<std::string> headers = { "p" };
    for (const auto &c : curves)
        headers.push_back(c.name);
    TextTable table(headers);
    for (size_t i = 0; i < curves[0].probability.size(); ++i) {
        std::vector<std::string> row = { formatDouble(
            curves[0].probability[i], 1) };
        for (const auto &c : curves)
            row.push_back(formatDouble(c.survivingGadgets[i], 1));
        table.addRow(row);
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, "fig8_tailored", runFigure8);
}
