/**
 * @file
 * Figure 9 (+ Tables 1 and 3) — Steady-state performance of PSR at
 * each optimization level, relative to native execution.
 *
 * The paper's x86 results: the O2 global register cache buys ~13%,
 * the O3 register bias a further ~5.5%, landing at ~86.9% of native
 * (13.14% degradation). This harness also sweeps the register-cache
 * size as the ablation DESIGN.md calls out (--regcache-sweep prints
 * it by default).
 */

#include <algorithm>
#include <chrono>
#include <iostream>

#include "bench_util.hh"
#include "sim/core_config.hh"
#include "support/logging.hh"
#include "support/stats.hh"

using namespace hipstr;
using namespace hipstr::bench;

namespace
{

/**
 * Steady-state VM dispatch rate (guest insts per wall second) with
 * the given trace sink attached — the measurement behind the
 * telemetry zero-cost check.
 */
double
steadyStateRate(const FatBinary &bin, telemetry::TraceBuffer *tb,
                telemetry::MetricRegistry *trace_reg = nullptr)
{
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    PsrConfig cfg;
    cfg.seed = 11;
    PsrVm vm(bin, IsaKind::Cisc, mem, os, cfg);
    vm.trace = tb;
    vm.reset();
    (void)vm.run(50'000); // warm the code cache
    const uint64_t target =
        benchOptions().smoke ? 2'000'000 : 20'000'000;
    uint64_t executed = 0;
    auto t0 = std::chrono::steady_clock::now();
    while (executed < target) {
        uint64_t before = vm.stats.guestInsts;
        auto r = vm.run(100'000);
        executed += vm.stats.guestInsts - before;
        if (r.reason != VmStop::StepLimit) {
            os.reset();
            vm.reset();
        }
    }
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    if (trace_reg != nullptr) {
        vm.publishTraceTelemetry(*trace_reg);
        vm.publishJitTelemetry(*trace_reg);
    }
    return secs > 0 ? double(executed) / secs : 0;
}

/**
 * Telemetry must be free when disabled: the steady-state dispatch
 * rate with a masked (mask 0) TraceBuffer attached has to stay within
 * noise of the rate with no sink at all — the VM has no hook sites on
 * its per-instruction path. Wall-clock rates go to the _host JSON
 * (never the deterministic summary); the gate is deliberately loose
 * (0.5x), while any accidental per-instruction hook (an
 * order-of-magnitude hit) still fails loudly. Each rate is the best
 * of three samples, taken off/masked interleaved, so one sample hit
 * by scheduler noise under a parallel ctest cannot flake the smoke
 * tier.
 */
void
checkTelemetryZeroCost()
{
    const FatBinary &bin = compiledWorkload("hmmer", 1);
    // Superblock-trace formation counters for the first off-rate run.
    // Host JSON only: trace coverage legitimately varies with
    // HIPSTR_JIT, so these must never reach the deterministic summary.
    telemetry::MetricRegistry trace_reg;
    telemetry::TraceBuffer masked(1024);
    masked.setMask(0);
    double off_rate = 0, masked_rate = 0;
    for (int sample = 0; sample < 3; ++sample) {
        off_rate = std::max(
            off_rate,
            steadyStateRate(bin, nullptr,
                            sample == 0 ? &trace_reg : nullptr));
        masked_rate = std::max(masked_rate,
                               steadyStateRate(bin, &masked));
    }
    benchHostMetric("telemetry_off_insts_per_sec", off_rate);
    benchHostMetric("telemetry_masked_insts_per_sec", masked_rate);
    // Trace-JIT counters ride along under the same host-only rule:
    // coverage varies with HIPSTR_JIT, so they never reach the
    // deterministic summary.
    for (const char *key :
         { "trace.formed", "trace.follows", "trace.invalidated",
           "jit.compiledTraces", "jit.codeBytes", "jit.executions",
           "jit.sideExits", "jit.bailouts", "jit.invalidated" })
        benchHostMetric(key, double(trace_reg.counter(key).value()));
    if (masked_rate < 0.5 * off_rate) {
        hipstr_fatal("masked telemetry slowed steady-state dispatch: "
                     "%.3g vs %.3g insts/s",
                     masked_rate, off_rate);
    }
    std::cout << "\nTelemetry zero-cost check: "
              << formatDouble(off_rate / 1e6, 1)
              << "M insts/s without a sink, "
              << formatDouble(masked_rate / 1e6, 1)
              << "M insts/s with a masked trace sink attached\n";
}

void
runFigure9()
{
    std::cout << "\n=== Table 1: Core configurations ===\n";
    printCoreTable(std::cout);

    std::cout << "\n=== Table 3: PSR optimization levels ===\n"
              << "O0: no optimization\n"
              << "O1: machine block placement, branch inlining + "
                 "superblocks\n"
              << "O2: O1 + global register cache (3 entries)\n"
              << "O3: O2 + PSR with a register bias\n";

    std::cout << "\n=== Figure 9: Relative performance by "
                 "optimization level (Cisc core) ===\n";
    TextTable table({ "Benchmark", "PSR-O1", "PSR-O2", "PSR-O3",
                      "Native" });
    const std::vector<std::string> names =
        benchWorkloads(specWorkloadNames());
    const uint32_t scale = benchScale(perfWorkloadConfig().scale);

    // (workload x level) cells, one measurement each; merged in cell
    // order below so the table is identical for any HIPSTR_JOBS.
    auto rels = parallelMap(names.size() * 3, [&](size_t i) {
        const FatBinary &bin =
            compiledWorkload(names[i / 3], scale);
        PsrConfig cfg;
        cfg.optLevel = unsigned(i % 3) + 1;
        cfg.seed = 11;
        return measurePerf(bin, IsaKind::Cisc, cfg).relative;
    });
    std::vector<double> o1s, o2s, o3s;
    for (size_t w = 0; w < names.size(); ++w) {
        o1s.push_back(rels[w * 3 + 0]);
        o2s.push_back(rels[w * 3 + 1]);
        o3s.push_back(rels[w * 3 + 2]);
        for (unsigned l = 0; l < 3; ++l) {
            benchMetrics()
                .gauge("fig9.relperf.o" + std::to_string(l + 1) +
                       "." + names[w])
                .set(rels[w * 3 + l]);
        }
        table.addRow({ names[w], formatPercent(rels[w * 3 + 0]),
                       formatPercent(rels[w * 3 + 1]),
                       formatPercent(rels[w * 3 + 2]), "100%" });
    }
    benchMetrics().gauge("fig9.relperf.o1.geomean").set(geomean(o1s));
    benchMetrics().gauge("fig9.relperf.o2.geomean").set(geomean(o2s));
    benchMetrics().gauge("fig9.relperf.o3.geomean").set(geomean(o3s));
    table.addRow({ "geomean", formatPercent(geomean(o1s)),
                   formatPercent(geomean(o2s)),
                   formatPercent(geomean(o3s)), "100%" });
    table.print(std::cout);
    std::cout << "(paper: O2 adds ~13%, O3 adds ~5.5%, final "
                 "overhead 13.14%)\n";

    // Ablation: global register cache size sweep at O2.
    std::cout << "\n--- Ablation: global register cache size (O2, "
                 "geomean) ---\n";
    TextTable sweep({ "Entries", "Relative performance" });
    const std::vector<unsigned> entry_counts = { 1u, 2u, 3u, 6u,
                                                 12u };
    auto srels =
        parallelMap(entry_counts.size() * names.size(), [&](size_t i) {
            const FatBinary &bin =
                compiledWorkload(names[i % names.size()], scale);
            PsrConfig cfg;
            cfg.optLevel = 2;
            cfg.regCacheEntries = entry_counts[i / names.size()];
            cfg.seed = 11;
            return measurePerf(bin, IsaKind::Cisc, cfg).relative;
        });
    for (size_t e = 0; e < entry_counts.size(); ++e) {
        std::vector<double> col(
            srels.begin() + long(e * names.size()),
            srels.begin() + long((e + 1) * names.size()));
        benchMetrics()
            .gauge("fig9.regcache.e" +
                   std::to_string(entry_counts[e]) + ".geomean")
            .set(geomean(col));
        sweep.addRow({ std::to_string(entry_counts[e]),
                       formatPercent(geomean(col)) });
    }
    sweep.print(std::cout);
    std::cout << "(the paper fixes the cache at 3 entries — enough "
                 "for tight loops, small enough to keep spilling to "
                 "random locations)\n";

    checkTelemetryZeroCost();
}

} // namespace

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, "fig9_performance", runFigure9);
}
