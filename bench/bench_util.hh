/**
 * @file
 * Shared plumbing for the benchmark harnesses: compile-and-measure
 * helpers that produce the native-vs-PSR relative performance numbers
 * the paper's figures report, and the gadget-evaluation pipeline the
 * security figures share.
 */

#ifndef HIPSTR_BENCH_BENCH_UTIL_HH
#define HIPSTR_BENCH_BENCH_UTIL_HH

#include <functional>
#include <string>
#include <vector>

#include "attack/classifier.hh"
#include "attack/galileo.hh"
#include "binary/loader.hh"
#include "compiler/compile.hh"
#include "sim/timing.hh"
#include "support/parallel.hh"
#include "telemetry/metrics.hh"
#include "vm/psr_vm.hh"
#include "workloads/workloads.hh"

namespace hipstr::bench
{

/**
 * Process-wide run options every harness honours.
 *
 *  - HIPSTR_BENCH_SMOKE=1 shrinks workload scale/trial counts to a
 *    size where every harness finishes in seconds (the bench_smoke
 *    CTest tier).
 *  - HIPSTR_JOBS caps the experiment engine's thread count (see
 *    support/parallel.hh); the resolved value is recorded in the
 *    per-bench JSON summary.
 */
struct BenchRunOptions
{
    bool smoke = false;
    unsigned jobs = 1;
};

const BenchRunOptions &benchOptions();

/**
 * Smoke-aware sizing: return @p full normally, a tiny value when
 * HIPSTR_BENCH_SMOKE=1. @{
 */
uint32_t benchScale(uint32_t full);
unsigned benchTrials(unsigned full);
unsigned benchCheckpoints(unsigned full);
/** Smoke mode keeps only the first two workloads of @p full. */
std::vector<std::string> benchWorkloads(std::vector<std::string> full);
/** @} */

/**
 * The registry every figure sweep publishes its headline numbers
 * into. benchMain() resets it before the sweep and exports it — via
 * MetricRegistry::toJson(), the repo's single deterministic JSON
 * writer — as BENCH_<name>.json afterwards. Record only modeled /
 * counted values here (never wall clock, never thread identity): the
 * file must be byte-identical for every HIPSTR_JOBS.
 */
telemetry::MetricRegistry &benchMetrics();

/**
 * Record a host-side measurement (wall seconds, instruction rates —
 * anything that legitimately varies run to run). Lands in
 * BENCH_<name>_host.json, *not* in the deterministic summary.
 */
void benchHostMetric(const std::string &key, double value);

/**
 * Common harness entry point: time @p figure (the figure sweep), then
 * write two machine-readable summaries next to the binary:
 *
 *  - BENCH_<name>.json — the benchMetrics() registry export plus the
 *    bench name and smoke flag. Deterministic: byte-identical across
 *    runs and HIPSTR_JOBS values (bench_determinism_test and
 *    scripts/check_bench_json.py enforce this).
 *  - BENCH_<name>_host.json — jobs, figure wall seconds, and any
 *    benchHostMetric() values; run-to-run variable by nature.
 *
 * A harness takes no arguments: given any, it prints one usage line
 * (naming perfbench/run.py, the repo's host-time instrument) and
 * returns 2 without running the sweep. Returns the process exit code.
 */
int benchMain(int argc, char **argv, const std::string &name,
              const std::function<void()> &figure);

/** Default workload sizing for perf benches. */
inline WorkloadConfig
perfWorkloadConfig()
{
    WorkloadConfig cfg;
    cfg.scale = 3;
    return cfg;
}

/** One performance measurement. */
struct PerfResult
{
    double nativeCycles = 0;
    double vmCycles = 0;
    /** Relative performance: native/vm, 1.0 = no overhead. */
    double relative = 0;
    VmStats stats;
    uint64_t nativeInsts = 0;
};

/**
 * Run @p bin natively and under a PSR VM on @p isa with full timing
 * instrumentation; returns the relative performance.
 */
PerfResult measurePerf(const FatBinary &bin, IsaKind isa,
                       const PsrConfig &cfg,
                       uint64_t max_insts = 1'000'000'000);

/**
 * Compile a workload once (caching by name+scale inside). Thread-safe:
 * concurrent callers for the same key block until the single compile
 * finishes; returned references stay valid for the process lifetime.
 */
const FatBinary &compiledWorkload(const std::string &name,
                                  uint32_t scale = 3);

/** Gadget population + PSR verdicts for one workload/ISA. */
struct GadgetStudy
{
    std::vector<Gadget> gadgets;
    std::vector<ObfuscationVerdict> verdicts;
    uint32_t viable = 0;
    uint32_t unobfuscated = 0;
    uint32_t surviving = 0;
    double avgParams = 0;
};

/**
 * Mine and evaluate the gadget population of one workload. The
 * population is split into fixed-size shards that classify in
 * parallel on the experiment engine; each shard owns a private loaded
 * Memory (the sandbox journals during runs) and an evaluator seeded
 * purely from the shard index, so results are identical for every
 * HIPSTR_JOBS value.
 */
GadgetStudy studyGadgets(const FatBinary &bin, IsaKind isa,
                         const PsrConfig &cfg, unsigned trials = 3);

/** Geometric-mean helper for figure averages. */
double geomean(const std::vector<double> &values);

} // namespace hipstr::bench

#endif // HIPSTR_BENCH_BENCH_UTIL_HH
