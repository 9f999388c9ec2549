/**
 * @file
 * Multi-tenant protected-server throughput on the heterogeneous-ISA
 * CMP: a worker pool serves a synthetic request stream under the
 * quantum scheduler, once with a clean mix and once with an
 * attack/malformed mix. The clean run shows the defense is silent on
 * benign traffic (zero security events, zero migrations); the attack
 * run shows the full Section 3.5/5.3 machinery — security events,
 * cross-ISA migrations, crash respawns with fresh randomization —
 * while the stream is still served to completion.
 *
 * Every reported number is configuration-derived and lands in the
 * benchMetrics() registry under "server.<mix>.*" names (plus the
 * "server.requests.served{mix,kind}" family and the per-phase runtime
 * profile), so BENCH_server_throughput.json is byte-identical for
 * every HIPSTR_JOBS value. benchMain's host-side wall-clock summary
 * goes to the separate _host file.
 */

#include <iostream>

#include "bench_util.hh"
#include "server/protected_server.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "telemetry/phase.hh"

using namespace hipstr;
using namespace hipstr::bench;

namespace
{

ServerConfig
baseConfig()
{
    ServerConfig cfg;
    cfg.workers = benchOptions().smoke ? 8 : 32;
    cfg.requestCount = benchOptions().smoke ? 200 : 10'000;
    cfg.seed = 0x5eed;
    cfg.hipstr.diversificationProbability = 1.0;
    return cfg;
}

/**
 * Publish one mix's report into the deterministic registry summary.
 * Everything recorded here is a pure function of the configuration —
 * never wall clock, never thread identity.
 */
void
recordMix(const char *mix, const ServerConfig &cfg,
          const ServerReport &r)
{
    auto &reg = benchMetrics();
    const std::string p = std::string("server.") + mix;
    reg.counter(p + ".requests").set(cfg.requestCount);
    reg.counter(p + ".served").set(r.requestsServed);
    reg.counter(p + ".abandoned").set(r.requestsAbandoned);
    reg.counter(p + ".rounds").set(r.rounds);
    reg.counter(p + ".guest_insts").set(r.totalGuestInsts);
    reg.counter(p + ".security_events").set(r.securityEvents);
    reg.counter(p + ".migrations").set(r.migrations);
    reg.counter(p + ".migrations_routed").set(r.migrationsRouted);
    reg.counter(p + ".migrations_denied").set(r.migrationsDenied);
    reg.counter(p + ".crashes").set(r.crashes);
    reg.counter(p + ".respawns").set(r.respawns);
    reg.counter(p + ".checksum_mismatches")
        .set(r.checksumMismatches);
    reg.counter(p + ".latency_p50_rounds").set(r.latency.p50Rounds);
    reg.counter(p + ".latency_p95_rounds").set(r.latency.p95Rounds);
    reg.gauge(p + ".req_per_modeled_second")
        .set(r.requestsPerModeledSecond);
    reg.counter(p + ".signature").set(r.signature);

    auto &kinds = reg.family("server.requests.served",
                             { "mix", "kind" });
    for (size_t k = 0; k < kNumRequestKinds; ++k) {
        kinds
            .at({ mix,
                  requestKindName(static_cast<RequestKind>(k)) })
            .set(r.servedByKind[k]);
    }
    telemetry::exportPhases(reg, (p + ".phases").c_str(), r.phases);
}

void
runThroughput()
{
    std::cout << "\n=== protected-server throughput ===\n";
    const ServerConfig base = baseConfig();
    const FatBinary &bin = compiledWorkload("httpd", benchScale(2));
    std::cout << base.workers << " workers on "
              << CmpModel(base.cmp).describe() << ", "
              << base.requestCount << " requests, quantum "
              << base.sched.quantumInsts << " insts\n";

    // Clean mix: benign traffic only. The defense must be silent.
    ServerConfig clean = base;
    ProtectedServer cleanServer(bin, clean);
    ServerReport cr = cleanServer.run();
    if (cr.requestsServed != clean.requestCount)
        hipstr_fatal("clean mix dropped requests: %llu/%llu",
                     (unsigned long long)cr.requestsServed,
                     (unsigned long long)clean.requestCount);
    // Cold first-time returns raise a few security events per worker
    // (indirect transfers into not-yet-translated blocks), but none
    // of those benign targets is a migration-safe point, so clean
    // traffic must never actually migrate — and never crash.
    if (cr.migrations != 0 || cr.crashes != 0) {
        hipstr_fatal("clean mix tripped the defense: %llu events, "
                     "%u migrations, %u crashes",
                     (unsigned long long)cr.securityEvents,
                     cr.migrations, cr.crashes);
    }

    // Attack mix: exploits and worker-killing garbage in the stream.
    ServerConfig attack = base;
    attack.mix.attackFrac = 0.05;
    attack.mix.malformedFrac = 0.05;
    ProtectedServer attackServer(bin, attack);
    ServerReport ar = attackServer.run();
    if (ar.requestsServed != attack.requestCount)
        hipstr_fatal("attack mix dropped requests: %llu/%llu",
                     (unsigned long long)ar.requestsServed,
                     (unsigned long long)attack.requestCount);
    if (ar.migrations == 0)
        hipstr_fatal("attack mix produced no cross-ISA migrations");
    if (ar.crashes == 0 || ar.respawns != ar.crashes)
        hipstr_fatal("attack mix crash/respawn mismatch: %u/%u",
                     ar.crashes, ar.respawns);
    if (ar.checksumMismatches != 0)
        hipstr_fatal("attack mix corrupted benign output: %u",
                     ar.checksumMismatches);

    TextTable table({ "Metric", "Clean mix", "Attack mix" });
    auto u64 = [](uint64_t v) { return std::to_string(v); };
    table.addRow({ "Requests served", u64(cr.requestsServed),
                   u64(ar.requestsServed) });
    table.addRow({ "Scheduler rounds", u64(cr.rounds),
                   u64(ar.rounds) });
    table.addRow({ "Security events", u64(cr.securityEvents),
                   u64(ar.securityEvents) });
    table.addRow({ "Cross-ISA migrations", u64(cr.migrations),
                   u64(ar.migrations) });
    table.addRow({ "Crashes / respawns",
                   u64(cr.crashes) + "/" + u64(cr.respawns),
                   u64(ar.crashes) + "/" + u64(ar.respawns) });
    table.addRow({ "Latency p50/p95 (rounds)",
                   u64(cr.latency.p50Rounds) + "/" +
                       u64(cr.latency.p95Rounds),
                   u64(ar.latency.p50Rounds) + "/" +
                       u64(ar.latency.p95Rounds) });
    table.addRow({ "Checksum mismatches",
                   u64(cr.checksumMismatches),
                   u64(ar.checksumMismatches) });
    table.print(std::cout);
    std::cout << "(attack traffic costs "
              << formatPercent(
                     cr.rounds
                         ? double(ar.rounds) / double(cr.rounds) - 1.0
                         : 0)
              << " extra rounds; every crash respawned with fresh "
                 "randomization and the stream was fully served)\n";

    // Deterministic summary: benchMain exports the registry as
    // BENCH_server_throughput.json, which must not change with
    // HIPSTR_JOBS. Host wall time lives in the _host JSON instead.
    auto &reg = benchMetrics();
    reg.counter("server.config.workers").set(base.workers);
    reg.counter("server.config.risc_cores").set(base.cmp.riscCores);
    reg.counter("server.config.cisc_cores").set(base.cmp.ciscCores);
    reg.counter("server.config.quantum_insts")
        .set(base.sched.quantumInsts);
    reg.counter("server.config.seed").set(base.seed);
    recordMix("clean", clean, cr);
    recordMix("attack", attack, ar);
}

} // namespace

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, "server_throughput",
                     runThroughput);
}
