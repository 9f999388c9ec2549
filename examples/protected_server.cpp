/**
 * @file
 * Protected-server scenario on the heterogeneous-CMP subsystem: a
 * pool of httpd-style worker processes served by the quantum
 * scheduler on a 2 Risc + 2 Cisc machine (Section 3.5 / 5.3).
 * Demonstrates:
 *
 *  - multi-tenant service under PSR with per-process randomization,
 *  - attack requests raising security events that migrate the worker
 *    to a core of the other ISA mid-request,
 *  - malformed requests crashing workers, which the scheduler
 *    respawns with fresh relocation maps on both ISAs,
 *  - the defense's bookkeeping: latency, throughput in modeled time,
 *    migrations, crashes, respawn generations.
 *
 *   ./examples/protected_server
 *   ./examples/protected_server --trace server_trace.json
 *   ./examples/protected_server --chaos
 *   ./examples/protected_server --fleet 4 --chaos
 *   ./examples/protected_server --campaign brute
 *   ./examples/protected_server --fleet 4 --campaign crossguest
 *
 * With --campaign <oneshot|brute|isomeron|respawn|crossguest>, an
 * adaptive adversary campaign (src/attack/campaign.hh) owns a share
 * of the request stream: it rewrites drawn requests into probes,
 * observes only what an external client could (responses, connection
 * resets, latency), and steers its next probes from the belief it
 * builds. The run prints the attacker's scorecard next to the
 * defender's. Campaign runs record and replay like any other — the
 * journal carries the rewritten probes, so HIPSTR_REPLAY re-drives
 * the hostile run bit-exactly with no engine attached.
 *
 * With --fleet K, the run scales out to K sharded servers behind the
 * deterministic load balancer (src/fleet): consistent-hash session
 * pinning, bounded admission queues, SLO shedding, and cross-shard
 * work stealing during respawn storms. The record/replay knobs below
 * work for fleet runs too (fleet journals share the format).
 *
 * With --trace, the run records a structured event trace (scheduler
 * quanta, request lifecycles, VM translations, cross-ISA migrations)
 * and writes it in Chrome trace_event format — open the file in
 * chrome://tracing or https://ui.perfetto.dev. EXPERIMENTS.md has the
 * full recipe.
 *
 * With --chaos, a seeded fault plan (src/fault) injects transient
 * guest faults, random core outages, and one scripted full-ISA
 * blackout; the supervisor rides it out with backoff, quarantine,
 * rerouting, and degraded single-ISA mode, and the run prints the
 * fault/recovery bookkeeping plus the final telemetry gauges.
 *
 * Record/replay (src/replay) wires in through two environment knobs:
 *
 *   HIPSTR_RECORD=run.hjl ./examples/protected_server --chaos
 *   HIPSTR_REPLAY=run.hjl ./examples/protected_server --chaos
 *
 * Recording journals every nondeterministic input (request draws,
 * fault firings, migration coin flips) plus periodic checkpoints
 * without perturbing the run; replaying re-drives the identical run
 * bit-exactly, verifying every round's sync signature. EXPERIMENTS.md
 * has the crash-triage recipe built on these.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>

#include "attack/campaign.hh"
#include "compiler/compile.hh"
#include "fleet/fleet.hh"
#include "replay/record_replay.hh"
#include "server/guest_process.hh"
#include "server/protected_server.hh"
#include "support/env.hh"
#include "vm/jit/engine.hh"
#include "workloads/workloads.hh"

using namespace hipstr;

int
main(int argc, char **argv)
{
    const char *trace_path = nullptr;
    bool chaos = false;
    unsigned fleetShards = 0;
    bool haveCampaign = false;
    attack::CampaignStrategy strategy =
        attack::CampaignStrategy::OneShot;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace") == 0) {
            trace_path = (i + 1 < argc) ? argv[++i]
                                        : "server_trace.json";
        } else if (std::strcmp(argv[i], "--chaos") == 0) {
            chaos = true;
        } else if (std::strcmp(argv[i], "--fleet") == 0 &&
                   i + 1 < argc) {
            fleetShards = unsigned(std::atoi(argv[++i]));
            if (fleetShards == 0 || fleetShards > 64) {
                std::fprintf(stderr, "--fleet wants 1..64 shards\n");
                return 2;
            }
        } else if (std::strcmp(argv[i], "--campaign") == 0 &&
                   i + 1 < argc) {
            if (!attack::campaignStrategyFromName(argv[++i],
                                                  strategy)) {
                std::fprintf(stderr,
                             "--campaign wants one of: oneshot brute "
                             "isomeron respawn crossguest\n");
                return 2;
            }
            haveCampaign = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--trace [file.json]] [--chaos] "
                         "[--fleet K] [--campaign <strategy>]\n",
                         argv[0]);
            return 2;
        }
    }

    WorkloadConfig wcfg;
    wcfg.scale = 2;
    FatBinary bin = compileModule(buildWorkload("httpd", wcfg));

    ServerConfig cfg;
    cfg.workers = 8;
    cfg.requestCount = 400;
    cfg.mix.attackFrac = 0.05;    // ~5% exploit attempts
    cfg.mix.malformedFrac = 0.05; // ~5% worker-killing garbage
    cfg.hipstr.diversificationProbability = 1.0;

    telemetry::TraceBuffer trace(1 << 18);
    if (trace_path != nullptr) {
        trace.setMask(telemetry::kAllTraceCategories);
        cfg.trace = &trace;
    }

    telemetry::MetricRegistry metrics;
    if (chaos) {
        cfg.faults.enabled = true;
        cfg.faults.quantumFaultRate = 0.01;
        cfg.faults.coreFailRate = 0.002;
        cfg.faults.scriptedOutageIsa = IsaKind::Risc;
        cfg.faults.scriptedOutageRound = 20;
        cfg.faults.scriptedOutageRounds = 25;
        cfg.watchdogQuanta = 3;
        cfg.sched.supervisor.backoffBaseRounds = 1;
        cfg.sched.supervisor.backoffCapRounds = 8;
        cfg.sched.supervisor.quarantineAfter = 4;
        cfg.sched.supervisor.quarantineRounds = 16;
        cfg.metrics = &metrics;
    }

    // Every worker VM honours HIPSTR_JIT through PsrConfig's default
    // JitMode::FromEnv; surface the effective engine choice up front
    // so a surprising perf profile is explainable from the banner.
    // The answer comes from a worker built with the servers' own
    // config, so the banner cannot disagree with what actually runs.
    const char *jit_reason = nullptr;
    const bool jit_host_ok = jit::TraceJit::hostSupported(&jit_reason);
    GuestProcessConfig probe_cfg;
    probe_cfg.hipstr = cfg.hipstr;
    const bool jit_on = GuestProcess(bin, probe_cfg)
                            .runtime()
                            .vm(IsaKind::Cisc)
                            .jitEnabled();
    std::printf("protected server: %u workers on %s, %llu requests "
                "(5%% attacks, 5%% malformed)%s, trace jit %s%s%s\n",
                cfg.workers, CmpModel(cfg.cmp).describe().c_str(),
                static_cast<unsigned long long>(cfg.requestCount),
                chaos ? " + seeded chaos plan" : "",
                jit_on ? "on" : "off",
                !jit_host_ok ? ": " : "",
                !jit_host_ok ? jit_reason : "");

    const std::string recordPath = envString("HIPSTR_RECORD");
    const std::string replayPath = envString("HIPSTR_REPLAY");
    if (!recordPath.empty() && !replayPath.empty()) {
        std::fprintf(stderr, "set HIPSTR_RECORD or HIPSTR_REPLAY, "
                             "not both\n");
        return 2;
    }

    // A live campaign makes no sense during replay: the journal
    // already carries every rewritten probe, and the drivers null the
    // engine anyway.
    std::unique_ptr<attack::CampaignEngine> campaign;
    auto makeCampaign = [&](uint64_t defenseSeed, unsigned shards) {
        attack::CampaignConfig ccfg = attack::campaignConfigFor(
            strategy, /*attackerSeed=*/0xa77ac4, defenseSeed,
            cfg.hipstr.psr.randSpaceBytes,
            cfg.hipstr.diversificationProbability, shards);
        ccfg.probeFrac = 0.25; // hostile tenant owns 25% of traffic
        if (trace_path != nullptr)
            ccfg.trace = &trace;
        campaign = std::make_unique<attack::CampaignEngine>(ccfg);
        std::printf("campaign: %s strategy, 25%% hostile tenancy, "
                    "secret space %u\n",
                    attack::campaignStrategyName(strategy),
                    campaign->config().secretSpace);
    };
    auto printCampaign = [&] {
        if (campaign == nullptr)
            return;
        if (!replayPath.empty()) {
            std::printf("  campaign: replayed from journal (no live "
                        "engine)\n");
            return;
        }
        const attack::CampaignReport cr = campaign->report();
        std::printf(
            "  campaign: %llu probes (%llu attack, %llu crash), "
            "%llu responses, %llu crashes seen, %llu silences\n",
            static_cast<unsigned long long>(cr.probesSent),
            static_cast<unsigned long long>(cr.attackProbes),
            static_cast<unsigned long long>(cr.crashProbes),
            static_cast<unsigned long long>(cr.responses),
            static_cast<unsigned long long>(cr.crashesObserved),
            static_cast<unsigned long long>(cr.silences));
        if (cr.compromises > 0) {
            std::printf("  campaign: %llu compromises, first after "
                        "%llu probes (round %llu)\n",
                        static_cast<unsigned long long>(
                            cr.compromises),
                        static_cast<unsigned long long>(
                            cr.firstCompromiseProbe),
                        static_cast<unsigned long long>(
                            cr.firstCompromiseRound));
        } else {
            std::printf("  campaign: no payload landed — the defense "
                        "held for the whole run\n");
        }
        std::printf(
            "  belief: %llu exclusions learned, %llu dropped to "
            "crash resets, %llu ISA leaks folded, %llu respawn gaps "
            "timed\n",
            static_cast<unsigned long long>(
                cr.belief.exclusionsLearned),
            static_cast<unsigned long long>(cr.belief.epochResets),
            static_cast<unsigned long long>(cr.belief.isaLeaksSeen),
            static_cast<unsigned long long>(cr.belief.gapsLearned));
    };

    if (fleetShards != 0) {
        FleetConfig fcfg;
        fcfg.shards = fleetShards;
        fcfg.server = cfg;
        fcfg.requestCount = cfg.requestCount * fleetShards;
        fcfg.mix = cfg.mix;
        fcfg.sloRounds = 128;
        fcfg.batchSize = 4 * fleetShards;
        fcfg.trace = cfg.trace;
        fcfg.metrics = cfg.metrics;
        if (haveCampaign) {
            makeCampaign(fcfg.seed, fcfg.shards);
            fcfg.campaign = campaign.get();
        }

        std::printf("fleet mode: %u shards x %u workers, %llu "
                    "requests across %llu sessions\n",
                    fcfg.shards, cfg.workers,
                    static_cast<unsigned long long>(
                        fcfg.requestCount),
                    static_cast<unsigned long long>(fcfg.sessions));

        FleetReport fr;
        if (!replayPath.empty()) {
            replay::FleetReplayResult rr =
                replay::replayFleetRun(bin, fcfg, replayPath);
            fr = rr.report;
            std::printf("replayed %s bit-exactly: %llu fleet rounds, "
                        "%llu sync points verified\n",
                        replayPath.c_str(),
                        static_cast<unsigned long long>(rr.rounds),
                        static_cast<unsigned long long>(
                            rr.syncChecks));
        } else if (!recordPath.empty()) {
            replay::FleetRecordResult rc =
                replay::recordFleetRun(bin, fcfg, recordPath);
            fr = rc.report;
            std::printf("recorded %llu fleet rounds to %s (%llu "
                        "journal bytes)\n",
                        static_cast<unsigned long long>(rc.rounds),
                        recordPath.c_str(),
                        static_cast<unsigned long long>(
                            rc.journalBytes));
        } else {
            ProtectedFleet fleet(bin, fcfg);
            fr = fleet.run();
        }

        std::printf(
            "fleet served %llu/%llu requests in %llu rounds "
            "(availability %.4f)\n",
            static_cast<unsigned long long>(fr.requestsServed),
            static_cast<unsigned long long>(fr.requestsOffered),
            static_cast<unsigned long long>(fr.rounds),
            fr.availability);
        std::printf("  shed past SLO: %llu, abandoned: %llu, "
                    "re-routed after worker loss: %llu\n",
                    static_cast<unsigned long long>(fr.requestsShed),
                    static_cast<unsigned long long>(
                        fr.requestsAbandoned),
                    static_cast<unsigned long long>(
                        fr.requestsRetried));
        std::printf("  latency: mean %.1f rounds, p50 %llu, p99 "
                    "%llu, p99.9 %llu, max %llu\n",
                    fr.meanLatencyRounds,
                    static_cast<unsigned long long>(fr.p50Rounds),
                    static_cast<unsigned long long>(fr.p99Rounds),
                    static_cast<unsigned long long>(fr.p999Rounds),
                    static_cast<unsigned long long>(fr.maxRounds));
        std::printf("  balancer: %llu steals during storms, %llu "
                    "backpressure stalls\n",
                    static_cast<unsigned long long>(fr.steals),
                    static_cast<unsigned long long>(
                        fr.backpressureStalls));
        std::printf("  defense: %llu security events, %u migrations, "
                    "%u crashes / %u respawns, %u quarantines\n",
                    static_cast<unsigned long long>(
                        fr.securityEvents),
                    fr.migrations, fr.crashes, fr.respawns,
                    fr.quarantines);
        printCampaign();
        for (size_t k = 0; k < fr.shardReports.size(); ++k) {
            const ServerReport &s = fr.shardReports[k];
            std::printf("  shard %zu: %llu served, %llu rounds, %u "
                        "crashes, %u migrations\n",
                        k,
                        static_cast<unsigned long long>(
                            s.requestsServed),
                        static_cast<unsigned long long>(s.rounds),
                        s.crashes, s.migrations);
        }

        if (trace_path != nullptr) {
            std::ofstream os(trace_path);
            trace.exportChrome(os);
            std::printf("wrote %zu trace events (%llu dropped) to "
                        "%s\n",
                        trace.size(),
                        static_cast<unsigned long long>(
                            trace.dropped()),
                        trace_path);
        }
        std::printf("done\n");
        return 0;
    }

    // The record/replay harnesses own their server internally, so
    // the per-worker dump below only runs for a plain serve.
    if (haveCampaign) {
        makeCampaign(cfg.seed, 1);
        cfg.campaign = campaign.get();
    }
    std::unique_ptr<ProtectedServer> server;
    ServerReport r;
    if (!replayPath.empty()) {
        replay::ReplayResult rr =
            replay::replayRun(bin, cfg, replayPath);
        r = rr.report;
        std::printf("replayed %s bit-exactly: %llu rounds, %llu "
                    "sync points verified\n",
                    replayPath.c_str(),
                    static_cast<unsigned long long>(rr.rounds),
                    static_cast<unsigned long long>(rr.syncChecks));
    } else if (!recordPath.empty()) {
        replay::RecordResult rc =
            replay::recordRun(bin, cfg, recordPath);
        r = rc.report;
        std::printf("recorded %llu rounds to %s (%llu journal "
                    "bytes, %llu checkpoints)\n",
                    static_cast<unsigned long long>(rc.rounds),
                    recordPath.c_str(),
                    static_cast<unsigned long long>(rc.journalBytes),
                    static_cast<unsigned long long>(rc.checkpoints));
    } else {
        server = std::make_unique<ProtectedServer>(bin, cfg);
        r = server->run();
    }

    std::printf(
        "served %llu/%llu requests in %llu rounds "
        "(%.1f req/modeled-second)\n",
        static_cast<unsigned long long>(r.requestsServed),
        static_cast<unsigned long long>(cfg.requestCount),
        static_cast<unsigned long long>(r.rounds),
        r.requestsPerModeledSecond);
    std::printf("  latency: mean %.1f rounds, p50 %llu, p95 %llu, "
                "max %llu\n",
                r.latency.meanRounds,
                static_cast<unsigned long long>(r.latency.p50Rounds),
                static_cast<unsigned long long>(r.latency.p95Rounds),
                static_cast<unsigned long long>(r.latency.maxRounds));
    std::printf(
        "  defense: %llu security events -> %u migrations "
        "(%u routed to other-ISA cores), %u denied\n",
        static_cast<unsigned long long>(r.securityEvents),
        r.migrations, r.migrationsRouted, r.migrationsDenied);
    std::printf("  crashes: %u, respawns with fresh randomization: "
                "%u (Section 5.3)\n",
                r.crashes, r.respawns);
    std::printf("  integrity: %u program completions verified, %u "
                "checksum mismatches\n",
                r.programsCompleted, r.checksumMismatches);
    printCampaign();

    if (chaos) {
        std::printf(
            "  chaos: %llu faults injected, %u watchdog kills, %u "
            "transform aborts rolled back\n",
            static_cast<unsigned long long>(r.faultsInjectedTotal),
            r.watchdogKills, r.transformAborts);
        std::printf(
            "  supervision: %u core outages (%llu offline quanta), "
            "%u reroutes + %u reroute respawns, %u quarantines, "
            "%u recoveries (mean %.1f rounds)\n",
            r.coreOutages,
            static_cast<unsigned long long>(r.offlineCoreQuanta),
            r.reroutes, r.rerouteRespawns, r.quarantines,
            r.recoveries, r.meanRoundsToRecover);
        std::printf(
            "  degraded single-ISA mode: entered %u times, exited "
            "%u, %llu rounds total; degraded_mode gauge now %.0f\n",
            r.degradedEntries, r.degradedExits,
            static_cast<unsigned long long>(r.degradedRounds),
            metrics.gauge("server.degraded_mode").value());
    }

    if (server == nullptr) {
        std::printf("done\n");
        return 0;
    }
    std::printf("per-worker generations after the run:\n");
    for (const auto &w : server->workers()) {
        std::printf(
            "  pid %-2u %-8s isa=%-4s respawns=%u gen(risc/cisc)="
            "%llu/%llu insts=%llu\n",
            w->pid(), procStateName(w->state()), isaName(w->isa()),
            w->respawnCount(),
            static_cast<unsigned long long>(
                w->runtime().vm(IsaKind::Risc).randomizer()
                    .generation()),
            static_cast<unsigned long long>(
                w->runtime().vm(IsaKind::Cisc).randomizer()
                    .generation()),
            static_cast<unsigned long long>(w->stats().guestInsts));
    }

    std::printf("runtime phase profile (modeled microseconds, summed "
                "over workers):\n");
    for (size_t i = 0;
         i < static_cast<size_t>(telemetry::Phase::kNum); ++i) {
        const telemetry::Phase ph = static_cast<telemetry::Phase>(i);
        const telemetry::PhaseStats &ps = r.phases[ph];
        std::printf("  %-19s %6llu invocations  %12.1f us\n",
                    telemetry::phaseName(ph),
                    static_cast<unsigned long long>(ps.invocations),
                    ps.modeledMicros);
    }

    if (trace_path != nullptr) {
        std::ofstream os(trace_path);
        trace.exportChrome(os);
        std::printf("wrote %zu trace events (%llu dropped) to %s -- "
                    "load in chrome://tracing or ui.perfetto.dev\n",
                    trace.size(),
                    static_cast<unsigned long long>(trace.dropped()),
                    trace_path);
    }

    std::printf("done: every crash handed the attacker a "
                "re-randomized worker; every security event moved "
                "the victim across the ISA boundary\n");
    return 0;
}
