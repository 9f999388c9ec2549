/**
 * @file
 * The repo benchmark's program:
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--scratch <dir>]
 *
 * Untraced (--trace 0): set up several times, then repeat measured
 * passes for the given seconds and report the end-to-end metrics as
 * medians over them. Traced (--trace 1): set up once, alternate
 * untraced and traced passes, run the layer probes, and report the
 * per-layer metrics, self times and the tracing overhead.
 *
 * Every line but the last is for people; the last line is the JSON
 * result. The exit code is 0 only when every output check passed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "trace.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

/** Set-ups per untraced run; setup_s is their median. */
constexpr int kSetups = 3;
/** Fewest measured passes per run, whatever --seconds says. */
constexpr size_t kMinPasses = 3;
/** Jobs of the pool-width comparison in traced runs (pool workers +
 *  the calling thread), capped by the hardware. */
const unsigned kWideJobs =
    std::min(4u, std::max(1u, std::thread::hardware_concurrency()));

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string scratch = ".";
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--scratch")
            a.scratch = v;
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/**
 * Steal accounting. On a virtual machine the hypervisor can take a
 * CPU away from a runnable guest ("steal"), which stretches every
 * host time measured inside it by an amount that depends on other
 * tenants, not on this program. The benchmark reads the machine's CPU
 * ticks around each timed region and removes the stolen share: a
 * region during which the CPUs ran for B ticks and were stolen for S
 * ticks reports wall x B / (B + S). Without steal (bare metal, or no
 * /proc/stat) that is the wall time itself. Raw times are printed on
 * the human-readable lines.
 */
struct CpuTicks
{
    double busy = 0;
    double steal = 0;
};

CpuTicks
readCpuTicks()
{
    // cpu  user nice system idle iowait irq softirq steal ...
    std::ifstream f("/proc/stat");
    std::string cpu;
    double v[8] = {};
    f >> cpu;
    for (double &x : v)
        f >> x;
    if (!f || cpu != "cpu")
        return {};
    return { v[0] + v[1] + v[2] + v[5] + v[6], v[7] };
}

/** Share of the CPU time wanted between @p a and @p b that was stolen. */
double
stolenShare(const CpuTicks &a, const CpuTicks &b)
{
    const double busy = b.busy - a.busy, steal = b.steal - a.steal;
    return busy + steal > 0 && steal > 0 ? steal / (busy + steal) : 0;
}

/** Steal-corrected seconds of @p fn, with its raw wall and stolen
 *  share. */
struct Timed
{
    double seconds = 0;
    double raw = 0;
    double stolen = 0;
};

template <typename Fn>
Timed
timeRegion(Fn &&fn)
{
    const CpuTicks c0 = readCpuTicks();
    const double t0 = nowSeconds();
    fn();
    Timed t;
    t.raw = nowSeconds() - t0;
    t.stolen = stolenShare(c0, readCpuTicks());
    t.seconds = t.raw * (1 - t.stolen);
    return t;
}

/** One measured pass with the stolen share removed from its times. */
PassResult
timedPass(Workload &wl, Tracer *t, OpsLedger &ops, Timed &region)
{
    PassResult p;
    region = timeRegion([&] { p = wl.pass(t, ops); });
    const double keep = 1 - region.stolen;
    for (double *secs :
         { &p.wallS, &p.servingS, &p.recordS, &p.replayS, &p.windowS })
        *secs *= keep;
    return p;
}

template <typename F>
std::vector<double>
column(const std::vector<PassResult> &passes, F f)
{
    std::vector<double> v;
    for (const PassResult &p : passes)
        v.push_back(f(p));
    return v;
}

/** "median [min .. max] (n=...)" of a sample, for the human-readable
 *  lines. */
std::string
spread(const std::vector<double> &v)
{
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    char buf[128];
    std::snprintf(buf, sizeof buf, "%.6g [%.6g .. %.6g] (n=%zu)",
                  median(s), s.front(), s.back(), s.size());
    return buf;
}

void
printMetrics(const std::vector<Metric> &ms)
{
    for (const Metric &m : ms) {
        std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
}

bool
sameSignatures(const std::vector<PassResult> &passes)
{
    for (const PassResult &p : passes) {
        if (p.signature != passes.front().signature)
            return false;
    }
    return true;
}

// -------------------------------------------------------------- untraced

std::vector<Metric>
runUntraced(Workload &wl, const Args &a, OpsLedger &ops)
{
    std::vector<double> setups;
    for (int k = 0; k < kSetups; ++k) {
        const Timed t = timeRegion([&] { wl.setup(nullptr); });
        setups.push_back(t.seconds);
        std::printf("setup %d: %.4f s (raw %.4f s, %.1f%% stolen)\n",
                    k + 1, t.seconds, t.raw, 100 * t.stolen);
    }

    std::vector<PassResult> passes;
    const double start = nowSeconds();
    while (passes.size() < kMinPasses ||
           nowSeconds() - start < a.seconds) {
        Timed t;
        passes.push_back(timedPass(wl, nullptr, ops, t));
        std::printf("pass %zu: wall %.4f s (raw %.4f s, %.1f%% stolen), "
                    "signature %016llx\n",
                    passes.size(), passes.back().wallS, t.raw,
                    100 * t.stolen,
                    (unsigned long long)passes.back().signature);
    }
    ops.check(sameSignatures(passes),
              "passes over the same inputs disagree");

    auto wall = column(passes, [](auto &p) { return p.wallS; });
    auto insts = column(passes, [](auto &p) {
        return double(p.guestInsts) / p.servingS;
    });
    auto rate = column(passes,
                       [](auto &p) { return double(p.ops) / p.servingS; });
    std::printf("setup_s  %s\n", spread(setups).c_str());
    std::printf("wall_s   %s\n", spread(wall).c_str());
    if (passes.front().recordS > 0) {
        auto rec = column(passes,
                          [](auto &p) { return p.recordS / p.servingS; });
        auto rep = column(passes,
                          [](auto &p) { return p.replayS / p.servingS; });
        auto win = column(passes, [](auto &p) { return p.windowS; });
        std::printf("requests_per_s   %.6g req/s (plain run, %.6g s)\n",
                    median(rate),
                    median(column(passes,
                                  [](auto &p) { return p.servingS; })));
        std::printf("record_overhead  %s x plain run\n",
                    spread(rec).c_str());
        std::printf("replay_overhead  %s x plain run\n",
                    spread(rep).c_str());
        std::printf("window_replay_s  %s\n", spread(win).c_str());
    } else if (a.workload != "figure") {
        std::printf("requests_per_s   %.6g req/s\n", median(rate));
    }

    return {
        { "setup_s", median(setups), "s" },
        { "wall_s", median(wall), "s" },
        { "guest_insts_per_s", median(insts), "inst/s" },
        { "ops_per_s", median(rate), "op/s" },
        { "peak_rss_mb", peakRssMiB(), "MiB" },
    };
}

// ---------------------------------------------------------------- traced

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream os(path);
    if (!os)
        return;
    const double t0 = spans.empty() ? 0 : spans.front().start;
    os << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? ",\n" : "") << "{\"name\": \"" << s.name
           << "\", \"ph\": \"X\", \"pid\": " << s.run
           << ", \"tid\": 0, \"ts\": " << jsonNumber((s.start - t0) * 1e6)
           << ", \"dur\": " << jsonNumber(s.duration() * 1e6)
           << ", \"args\": {\"id\": " << s.id
           << ", \"parent\": " << s.parent << "}}";
    }
    os << "\n]}\n";
}

/** One per-layer metric of a traced run. */
struct LayerMetric
{
    std::string name;
    std::string unit;
    double value = 0;
    /** False when this workload never crosses the boundary. */
    bool applies = true;
    /**
     * In the result line. The result line reports every per-layer
     * metric on every workload, so it carries only what every workload
     * measures; a time at a boundary some workloads never cross would
     * read 0 on every run of the others. Those times are printed on
     * the human-readable lines instead ("n/a" where they do not apply).
     */
    bool inResult = true;
};

std::vector<Metric>
runTraced(Workload &wl, const Args &a, hipstr::ThreadPool &pool,
          unsigned jobs, OpsLedger &ops)
{
    Tracer tr;
    tr.setRun(0);
    {
        ScopedSpan span(&tr, "bench.setup");
        wl.setup(&tr);
    }

    // Alternate untraced and traced passes so both see the same
    // machine conditions; the untraced ones also give the CPU use.
    std::vector<PassResult> plain, traced;
    std::vector<uint32_t> tracedRuns;
    double cpu = 0, cpuWall = 0;
    const double start = nowSeconds();
    while (plain.size() < 2 || traced.size() < 2 ||
           nowSeconds() - start < a.seconds) {
        Timed t;
        const double c0 = cpuSeconds();
        plain.push_back(timedPass(wl, nullptr, ops, t));
        cpu += cpuSeconds() - c0;
        cpuWall += t.seconds;

        const uint32_t run = uint32_t(traced.size() + 1);
        tr.setRun(run);
        traced.push_back(timedPass(wl, &tr, ops, t));
        tracedRuns.push_back(run);
        std::printf("pass %zu: untraced %.4f s, traced %.4f s\n",
                    traced.size(), plain.back().wallS,
                    traced.back().wallS);
    }
    std::vector<PassResult> all = plain;
    all.insert(all.end(), traced.begin(), traced.end());
    ops.check(sameSignatures(all),
              "traced passes disagree with untraced passes");
    std::printf("signature %016llx (traced == untraced: %s)\n",
                (unsigned long long)all.front().signature,
                sameSignatures(all) ? "yes" : "NO");
    const double untracedWall =
        median(column(plain, [](auto &p) { return p.wallS; }));

    // A workload measured on one job also runs two untraced passes on
    // the widest pool: the speedup is the fork/join payoff, and the
    // outcome must not depend on the width.
    double wideSpeedup = 0;
    if (jobs == 1 && kWideJobs > 1) {
        hipstr::ThreadPool wide(kWideJobs - 1);
        wl.usePool(&wide);
        std::vector<PassResult> widePasses;
        for (int k = 0; k < 2; ++k) {
            Timed t;
            widePasses.push_back(timedPass(wl, nullptr, ops, t));
            ops.check(widePasses.back().signature == all.front().signature,
                      "outcome depends on the pool width");
        }
        wl.usePool(&pool);
        const double wideWall =
            median(column(widePasses, [](auto &p) { return p.wallS; }));
        wideSpeedup = untracedWall / wideWall;
        std::printf("pool width %u: wall %.4f s vs %.4f s at width 1, "
                    "speedup %.3f x\n",
                    kWideJobs, wideWall, untracedWall, wideSpeedup);
    }

    const uint32_t probeRun = uint32_t(traced.size() + 1);
    tr.setRun(probeRun);
    {
        ScopedSpan span(&tr, "bench.probes");
        wl.probes(tr, ops);
    }

    const std::vector<Span> spans = tr.spans();
    const double n = double(traced.size());
    const double tracedWall =
        median(column(traced, [](auto &p) { return p.wallS; }));

    // Sources. Each returns nullopt when this workload never crossed
    // the boundary; span and counter values are per traced pass.
    using Opt = std::optional<double>;
    auto passSpan = [&](const char *name, double scale) -> Opt {
        if (spanCount(spans, name, tracedRuns) == 0)
            return std::nullopt;
        return totalDuration(spans, name, tracedRuns) * scale / n;
    };
    auto perPass = [&](const char *c) { return tr.counter(c) / n; };
    auto probe = [&](const char *c) -> Opt {
        return tr.hasCounter(c) ? Opt(tr.counter(c)) : std::nullopt;
    };
    auto pct = [&](const char *key, double q, const char *name) -> Opt {
        const std::vector<double> s = tr.samples(key);
        const Opt p = percentile(s, q);
        if (!s.empty() && !p)
            std::printf("note: %s not reported: %zu samples leave fewer "
                        "than ten beyond it\n",
                        name, s.size());
        return p;
    };
    auto ratioOfPlain = [&](double PassResult::*num) {
        return median(column(plain, [&](const PassResult &p) {
            return p.*num / p.servingS;
        }));
    };

    std::vector<LayerMetric> ms;
    // Measured on every workload (0 is a real count or ratio).
    auto every = [&](const char *name, const char *unit, Opt v) {
        ms.push_back({ name, unit, v ? *v : 0.0, true, true });
    };
    // Times at boundaries only some workloads cross.
    auto some = [&](const char *name, const char *unit, Opt v) {
        ms.push_back({ name, unit, v ? *v : 0.0, v.has_value(), false });
    };

    every("compiler.compile_s", "s",
          totalDuration(spans, "compiler.compile", { 0 }));
    every("compiler.compile_calls", "count",
          tr.counter("compiler.compile_calls"));
    some("binary.load_s", "s", passSpan("binary.load", 1));
    every("binary.load_calls", "count", perPass("binary.load_calls"));
    some("isa.interp_s", "s", passSpan("isa.interp", 1));
    every("isa.interp_insts", "inst", perPass("isa.interp_insts"));
    every("isa.decode_ns", "ns", probe("isa.decode_ns"));
    some("sim.native_timed_s", "s", passSpan("sim.native_timed", 1));
    some("sim.vm_timed_s", "s", passSpan("sim.vm_timed", 1));
    every("core.translate_ns_per_inst", "ns/inst",
          probe("core.translate_ns_per_inst"));
    every("core.translate_units", "count",
          probe("core.translate_units"));
    every("core.mapgen_us", "us", probe("core.mapgen_us"));
    every("vm.cold_run_ms", "ms", probe("vm.cold_run_ms"));
    every("vm.warm_run_ms", "ms", probe("vm.warm_run_ms"));
    every("vm.rewarm_ratio", "x", probe("vm.rewarm_ratio"));
    for (const char *c : { "vm.translations", "vm.cache_flushes",
                           "vm.dispatches", "vm.trace_follows",
                           "vm.security_events", "jit.compiled_traces" })
        every(c, "count", perPass(c));
    every("jit.code_bytes", "bytes", perPass("jit.code_bytes"));
    every("jit.executions", "count", perPass("jit.executions"));
    const double jitExec = tr.counter("jit.executions");
    every("jit.side_exit_ratio", "ratio",
          jitExec > 0 ? tr.counter("jit.side_exits") / jitExec : 0.0);
    every("jit.bailouts", "count", perPass("jit.bailouts"));
    every("migration.transform_us", "us",
          probe("migration.transform_us"));
    every("migration.calls", "count", perPass("migration.calls"));
    some("server.round_ms_p50", "ms",
         pct("server.round_ms", 0.5, "server.round_ms_p50"));
    some("server.round_ms_p99", "ms",
         pct("server.round_ms", 0.99, "server.round_ms_p99"));
    every("server.rounds", "count", perPass("server.rounds"));
    every("server.respawn_ms", "ms", probe("server.respawn_ms"));
    for (const char *c :
         { "server.respawns", "server.crashes", "server.quanta" })
        every(c, "count", perPass(c));
    some("fleet.run_s", "s", passSpan("fleet.run", 1));
    some("fleet.round_ms_p50", "ms",
         pct("fleet.round_ms", 0.5, "fleet.round_ms_p50"));
    some("fleet.round_ms_p99", "ms",
         pct("fleet.round_ms", 0.99, "fleet.round_ms_p99"));
    every("fleet.rounds", "count", perPass("fleet.rounds"));
    every("fleet.steals", "count", perPass("fleet.steals"));
    every("parallel.cpu_util", "ratio", cpu / (cpuWall * jobs));
    every("parallel.wide_speedup", "x", wideSpeedup);
    some("replay.record_s", "s", passSpan("replay.record", 1));
    some("replay.replay_s", "s", passSpan("replay.replay", 1));
    some("replay.window_s", "s", passSpan("replay.window", 1));
    some("replay.parse_ms", "ms", passSpan("replay.parse", 1e3));
    every("replay.record_overhead", "x",
          ratioOfPlain(&PassResult::recordS));
    every("replay.replay_overhead", "x",
          ratioOfPlain(&PassResult::replayS));
    some("replay.checkpoint_ms", "ms", probe("replay.checkpoint_ms"));
    every("replay.checkpoint_mb", "MiB", probe("replay.checkpoint_mb"));
    some("replay.restore_ms", "ms", probe("replay.restore_ms"));
    every("replay.journal_mb", "MiB", perPass("replay.journal_mb"));
    every("replay.checkpoints", "count", perPass("replay.checkpoints"));
    some("attack.run_s", "s", passSpan("attack.run", 1));
    for (const char *c : { "attack.probes", "attack.crashes_observed",
                           "attack.compromises" })
        every(c, "count", perPass(c));

    // Self time per layer over the traced passes, and each layer's
    // share of all of it.
    const std::map<std::string, double> self =
        selfTimeByLayer(spans, tracedRuns);
    double selfTotal = 0;
    for (const auto &kv : self)
        selfTotal += kv.second;
    for (const char *layer : { "bench", "binary", "isa", "sim", "server",
                               "fleet", "replay", "attack" }) {
        auto it = self.find(layer);
        const Opt secs =
            it == self.end() ? std::nullopt : Opt(it->second / n);
        some((std::string(layer) + ".self_s").c_str(), "s", secs);
        every((std::string(layer) + ".self_share").c_str(), "ratio",
              secs && selfTotal > 0 ? *secs * n / selfTotal : 0.0);
    }

    every("bench.untraced_wall_s", "s", untracedWall);
    every("bench.traced_wall_s", "s", tracedWall);
    every("bench.trace_overhead", "x", tracedWall / untracedWall);
    every("bench.spans_per_pass", "count",
          double(std::count_if(spans.begin(), spans.end(),
                               [&](const Span &s) {
                                   return s.run >= 1 && s.run <= n;
                               })) /
              n);

    std::vector<Metric> out;
    for (const LayerMetric &m : ms) {
        if (m.applies)
            std::printf("  %-28s %16.6g %s%s\n", m.name.c_str(), m.value,
                        m.unit.c_str(), m.inResult ? "" : "  (not in result)");
        else
            std::printf("  %-28s %16s\n", m.name.c_str(), "n/a");
        if (m.inResult)
            out.push_back({ m.name, m.value, m.unit });
    }

    const std::string path = a.scratch + "/trace-" + a.workload + "-" +
        std::to_string(a.seed) + ".json";
    writeSpans(path, spans);
    std::printf("spans: %zu written to %s\n", spans.size(),
                path.c_str());
    std::printf("tracing overhead: traced wall %.6g s / untraced wall "
                "%.6g s = %.4f x\n",
                tracedWall, untracedWall, tracedWall / untracedWall);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--scratch <dir>]\n");
        return 2;
    }

    const unsigned jobs = workloadJobs(
        a.workload, std::max(1u, std::thread::hardware_concurrency()));
    // The benchmark's pool, and the global one for any call that
    // falls back to it, both at the same fixed width.
    hipstr::ThreadPool::setGlobalThreads(jobs - 1);
    hipstr::ThreadPool pool(jobs - 1);

    Inputs in;
    in.seed = a.seed;
    in.pool = &pool;
    in.scratchDir = a.scratch;
    std::unique_ptr<Workload> wl = makeWorkload(a.workload, in);
    if (!wl) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     a.workload.c_str());
        return 2;
    }

    std::printf("perfbench: workload %s, seed %llu, %g s, trace %d, "
                "jobs %u\n",
                a.workload.c_str(), (unsigned long long)a.seed,
                a.seconds, a.trace ? 1 : 0, jobs);
    std::printf("  %s\n", wl->describe().c_str());
    std::fflush(stdout);

    OpsLedger ops;
    std::vector<Metric> metrics;
    try {
        metrics = a.trace ? runTraced(*wl, a, pool, jobs, ops)
                          : runUntraced(*wl, a, ops);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    wl.reset();

    if (!a.trace)
        printMetrics(metrics);
    std::printf("operations: %llu attempted, %llu failed\n",
                (unsigned long long)ops.attempted(),
                (unsigned long long)ops.failed());
    for (const std::string &f : ops.failures())
        std::printf("FAILED: %s\n", f.c_str());
    std::fflush(stdout);
    writeResultLine(std::cout, ops, metrics);
    std::cout.flush();
    return ops.correct() ? 0 : 1;
}
