#include "bench_util.hh"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>

#include "support/env.hh"
#include "support/logging.hh"

namespace hipstr::bench
{

const BenchRunOptions &
benchOptions()
{
    static const BenchRunOptions opts = [] {
        BenchRunOptions o;
        o.smoke = envFlag("HIPSTR_BENCH_SMOKE", false);
        o.jobs = hipstrJobs();
        return o;
    }();
    return opts;
}

uint32_t
benchScale(uint32_t full)
{
    return benchOptions().smoke ? 1 : full;
}

unsigned
benchTrials(unsigned full)
{
    return benchOptions().smoke ? 1 : full;
}

unsigned
benchCheckpoints(unsigned full)
{
    return benchOptions().smoke ? std::min(full, 2u) : full;
}

std::vector<std::string>
benchWorkloads(std::vector<std::string> full)
{
    if (benchOptions().smoke && full.size() > 2)
        full.resize(2);
    return full;
}

namespace
{

std::mutex host_metrics_mutex;
std::vector<std::pair<std::string, double>> host_metrics;

} // namespace

telemetry::MetricRegistry &
benchMetrics()
{
    static telemetry::MetricRegistry registry;
    return registry;
}

void
benchHostMetric(const std::string &key, double value)
{
    std::lock_guard<std::mutex> lock(host_metrics_mutex);
    host_metrics.emplace_back(key, value);
}

int
benchMain(int argc, char **argv, const std::string &name,
          const std::function<void()> &figure)
{
    if (argc > 1) {
        std::cerr << "usage: " << argv[0]
                  << " (takes no arguments; for host timings run "
                     "python3 perfbench/run.py)\n";
        return 2;
    }
    using clock = std::chrono::steady_clock;
    benchMetrics().reset();
    auto t0 = clock::now();
    figure();
    double wall = std::chrono::duration<double>(clock::now() - t0)
                      .count();

    // Deterministic summary: the registry export only. Nothing
    // host-dependent (jobs, wall clock) may appear here — the file is
    // compared byte-for-byte across HIPSTR_JOBS values.
    {
        std::ofstream json("BENCH_" + name + ".json");
        json << "{\n"
             << "  \"bench\": \"" << name << "\",\n"
             << "  \"smoke\": "
             << (benchOptions().smoke ? "true" : "false") << ",\n"
             << "  \"metrics\": {\n";
        benchMetrics().toJson(json, 4);
        json << "  }\n"
             << "}\n";
    }

    // Host-side companion: run-to-run variable measurements.
    {
        std::ofstream host("BENCH_" + name + "_host.json");
        host << "{\n"
             << "  \"bench\": \"" << name << "\",\n"
             << "  \"jobs\": " << benchOptions().jobs << ",\n"
             << "  \"figure_wall_seconds\": " << wall;
        std::lock_guard<std::mutex> lock(host_metrics_mutex);
        for (const auto &kv : host_metrics) {
            host << ",\n  \"" << telemetry::jsonEscape(kv.first)
                 << "\": " << telemetry::jsonNumber(kv.second);
        }
        host << "\n}\n";
    }
    return 0;
}

PerfResult
measurePerf(const FatBinary &bin, IsaKind isa, const PsrConfig &cfg,
            uint64_t max_insts)
{
    PerfResult res;

    // The paper fast-forwards past initialization and measures steady
    // state (Section 6). We mirror that: run the first 40% of the
    // program as warmup (translations happen, code cache fills), then
    // measure the remainder.
    uint64_t total_insts = 0;
    {
        Memory mem;
        loadFatBinary(bin, mem);
        GuestOs os;
        Interpreter interp(isa, mem, os);
        initMachineState(interp.state, bin, isa);
        RunResult r = interp.run(max_insts);
        if (r.reason != StopReason::Exited)
            hipstr_fatal("native run did not complete: %s",
                         stopReasonName(r.reason));
        total_insts = r.instsExecuted;
    }
    const uint64_t warmup = total_insts * 2 / 5;

    // Native baseline. The register-cache L0 is enabled here too: it
    // stands in for store-to-load forwarding on the baseline core, so
    // only PSR's *extra* spread-out slot traffic shows as overhead.
    {
        Memory mem;
        loadFatBinary(bin, mem);
        GuestOs os;
        Interpreter interp(isa, mem, os);
        initMachineState(interp.state, bin, isa);
        TimingHarness harness(isa, /*reg_cache_on=*/true);
        (void)interp.run(warmup);
        harness.attachInterpreter(interp);
        TimingSnapshot t0 = harness.snapshot();
        RunResult r = interp.run(max_insts);
        if (r.reason != StopReason::Exited)
            hipstr_fatal("native run did not complete: %s",
                         stopReasonName(r.reason));
        res.nativeCycles = harness.nativeCyclesSince(t0);
        res.nativeInsts = warmup + r.instsExecuted;
    }

    // PSR VM, warmed up the same way.
    {
        Memory mem;
        loadFatBinary(bin, mem);
        GuestOs os;
        PsrVm vm(bin, isa, mem, os, cfg);
        vm.reset();
        TimingHarness harness(isa,
                              cfg.globalRegCache() &&
                                  !cfg.isomeronMode,
                              cfg.regCacheEntries);
        harness.attachVm(vm);
        VmRunResult w = vm.run(warmup);
        if (w.reason != VmStop::StepLimit &&
            w.reason != VmStop::Exited) {
            hipstr_fatal("vm warmup failed: %s",
                         vmStopName(w.reason));
        }
        VmStats before = vm.stats;
        TimingSnapshot t0 = harness.snapshot();
        VmRunResult r = vm.run(max_insts);
        if (r.reason != VmStop::Exited)
            hipstr_fatal("vm run did not complete: %s",
                         vmStopName(r.reason));
        res.vmCycles = harness.vmCyclesSince(before, vm.stats, t0);
        res.stats = vm.stats;
    }

    res.relative = res.nativeCycles / res.vmCycles;
    return res;
}

const FatBinary &
compiledWorkload(const std::string &name, uint32_t scale)
{
    // Compile-once under concurrency: a shared lock covers the common
    // hit path; slot creation takes the exclusive lock but the
    // (expensive) compile itself runs under the slot's once_flag, so
    // two threads racing on different keys compile concurrently.
    // std::map gives the entry pointers the stability the returned
    // references require.
    struct Entry
    {
        std::once_flag once;
        FatBinary bin;
    };
    static std::shared_mutex mutex;
    static std::map<std::pair<std::string, uint32_t>,
                    std::unique_ptr<Entry>>
        cache;

    auto key = std::make_pair(name, scale);
    Entry *entry = nullptr;
    {
        std::shared_lock<std::shared_mutex> lock(mutex);
        auto it = cache.find(key);
        if (it != cache.end())
            entry = it->second.get();
    }
    if (entry == nullptr) {
        std::unique_lock<std::shared_mutex> lock(mutex);
        auto &slot = cache[key];
        if (!slot)
            slot = std::make_unique<Entry>();
        entry = slot.get();
    }
    std::call_once(entry->once, [&] {
        WorkloadConfig cfg;
        cfg.scale = scale;
        entry->bin = compileModule(buildWorkload(name, cfg));
    });
    return entry->bin;
}

GadgetStudy
studyGadgets(const FatBinary &bin, IsaKind isa, const PsrConfig &cfg,
             unsigned trials)
{
    GadgetStudy study;
    study.gadgets = scanBinary(bin, isa);
    const size_t n = study.gadgets.size();
    study.verdicts.resize(n);
    if (n == 0)
        return study;

    // Fixed shard geometry: the split depends only on the population
    // size, and each shard's evaluator is seeded from its shard index
    // — never from a thread id — so the verdict vector is identical
    // for every HIPSTR_JOBS value.
    constexpr size_t kShardTarget = 64;
    const size_t shards = (n + kShardTarget - 1) / kShardTarget;
    const size_t per_shard = (n + shards - 1) / shards;

    parallelFor(shards, [&](size_t s) {
        const size_t begin = s * per_shard;
        const size_t end = std::min(n, begin + per_shard);
        // Private loaded image: the sandbox journals writes into
        // guest memory during every gadget execution, so shards
        // cannot share one Memory.
        Memory mem;
        loadFatBinary(bin, mem);
        PsrConfig shard_cfg = cfg;
        shard_cfg.seed =
            cfg.seed + 0x9e3779b97f4a7c15ull * (uint64_t(s) + 1);
        PsrGadgetEvaluator eval(bin, mem, isa, shard_cfg, trials);
        for (size_t i = begin; i < end; ++i)
            study.verdicts[i] = eval.evaluate(study.gadgets[i]);
    });

    // Merge in index order (counters must not depend on completion
    // interleaving).
    double params = 0;
    for (const ObfuscationVerdict &v : study.verdicts) {
        params += v.randomizableParams;
        if (v.nativeViable)
            ++study.viable;
        if (v.unobfuscated)
            ++study.unobfuscated;
        if (v.survivesBruteForce)
            ++study.surviving;
    }
    study.avgParams = params / double(n);
    return study;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double log_sum = 0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / double(values.size()));
}

} // namespace hipstr::bench
