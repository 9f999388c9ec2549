/**
 * @file
 * Fault-tolerance sweep: the protected server rides out a seeded
 * chaos plan — transient quantum faults on every worker, random core
 * outages, plus one scripted full-ISA blackout — at several fault
 * rates, under the PR-4 supervision policy (bounded backoff,
 * quarantine + respawn, ISA-affinity rerouting, degraded single-ISA
 * mode). The headline numbers are availability (requests served /
 * offered) and mean scheduler rounds from a core outage to its
 * supervised recovery.
 *
 * Everything recorded is a pure function of the configuration: the
 * fault plan hashes (seed, identity, time), never wall clock, so
 * BENCH_fault_tolerance.json is byte-identical for every HIPSTR_JOBS
 * value. scripts/check_bench_json.py additionally checks this file's
 * shape: >= 3 "fault.r<permille>." groups, availability in [0, 1],
 * mean_rounds_to_recover present.
 */

#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "server/protected_server.hh"
#include "support/logging.hh"
#include "support/stats.hh"

using namespace hipstr;
using namespace hipstr::bench;

namespace
{

/** Per-mille fault rates the sweep runs (quantum-fault probability;
 *  the core-failure rate rides along at a fifth of it). */
const std::vector<unsigned> kRatesPermille = { 5, 10, 20 };

ServerConfig
chaosConfig(unsigned permille)
{
    ServerConfig cfg;
    cfg.workers = benchOptions().smoke ? 8 : 16;
    cfg.requestCount = benchOptions().smoke ? 400 : 5'000;
    cfg.seed = 0x5eed;
    cfg.mix.attackFrac = 0.02;
    cfg.mix.malformedFrac = 0.02;
    cfg.hipstr.diversificationProbability = 1.0;
    cfg.watchdogQuanta = 3;
    cfg.sched.supervisor.backoffBaseRounds = 1;
    cfg.sched.supervisor.backoffCapRounds = 8;
    cfg.sched.supervisor.quarantineAfter = 4;
    cfg.sched.supervisor.quarantineRounds = 16;

    cfg.faults.enabled = true;
    cfg.faults.quantumFaultRate = permille / 1000.0;
    cfg.faults.coreFailRate = permille / 5000.0;
    // One scripted full-ISA blackout per run, so every rate's sweep
    // provably passes through degraded single-ISA mode and back.
    cfg.faults.scriptedOutageIsa = IsaKind::Risc;
    cfg.faults.scriptedOutageRound = 40;
    cfg.faults.scriptedOutageRounds = 30;
    return cfg;
}

void
recordRate(unsigned permille, const ServerConfig &cfg,
           const ServerReport &r, double availability)
{
    auto &reg = benchMetrics();
    const std::string p =
        "fault.r" + std::to_string(permille) + ".";
    reg.counter(p + "rate_permille").set(permille);
    reg.counter(p + "requests").set(cfg.requestCount);
    reg.counter(p + "served").set(r.requestsServed);
    reg.counter(p + "abandoned").set(r.requestsAbandoned);
    reg.gauge(p + "availability").set(availability);
    reg.gauge(p + "mean_rounds_to_recover")
        .set(r.meanRoundsToRecover);
    reg.counter(p + "rounds").set(r.rounds);
    reg.counter(p + "faults_injected").set(r.faultsInjectedTotal);
    reg.counter(p + "crashes").set(r.crashes);
    reg.counter(p + "respawns").set(r.respawns);
    reg.counter(p + "watchdog_kills").set(r.watchdogKills);
    reg.counter(p + "transform_aborts").set(r.transformAborts);
    reg.counter(p + "core_outages").set(r.coreOutages);
    reg.counter(p + "core_recoveries").set(r.coreRecoveries);
    reg.counter(p + "offline_core_quanta").set(r.offlineCoreQuanta);
    reg.counter(p + "degraded_entries").set(r.degradedEntries);
    reg.counter(p + "degraded_rounds").set(r.degradedRounds);
    reg.counter(p + "reroutes")
        .set(uint64_t(r.reroutes) + r.rerouteRespawns);
    reg.counter(p + "quarantines").set(r.quarantines);
    reg.counter(p + "recoveries").set(r.recoveries);
    reg.counter(p + "checksum_mismatches")
        .set(r.checksumMismatches);
    reg.counter(p + "signature").set(r.signature);
}

void
runFaultTolerance()
{
    std::cout << "\n=== fault tolerance / availability sweep ===\n";
    const FatBinary &bin = compiledWorkload("httpd", benchScale(2));
    {
        const ServerConfig probe = chaosConfig(kRatesPermille[0]);
        std::cout << probe.workers << " workers on "
                  << CmpModel(probe.cmp).describe() << ", "
                  << probe.requestCount
                  << " requests per rate, scripted "
                  << isaName(probe.faults.scriptedOutageIsa)
                  << " blackout of "
                  << probe.faults.scriptedOutageRounds
                  << " rounds at round "
                  << probe.faults.scriptedOutageRound << "\n";
    }

    TextTable table({ "Fault rate", "Availability", "Faults",
                      "Crashes", "Outages", "Recover (rounds)",
                      "Degraded rounds" });
    for (unsigned permille : kRatesPermille) {
        const ServerConfig cfg = chaosConfig(permille);
        ProtectedServer server(bin, cfg);
        ServerReport r = server.run();

        if (r.requestsServed + r.requestsAbandoned
            != cfg.requestCount) {
            hipstr_fatal(
                "rate %u‰: request accounting broken: %llu + %llu "
                "!= %llu",
                permille, (unsigned long long)r.requestsServed,
                (unsigned long long)r.requestsAbandoned,
                (unsigned long long)cfg.requestCount);
        }
        const double availability =
            double(r.requestsServed) / double(cfg.requestCount);
        // The scripted blackout guarantees outages, a degraded
        // window, and supervised recoveries at every rate.
        if (r.coreOutages == 0 || r.recoveries == 0
            || r.degradedEntries == 0 || r.degradedEntries
            != r.degradedExits)
            hipstr_fatal("rate %u‰: scripted blackout not observed",
                         permille);
        if (r.meanRoundsToRecover <= 0)
            hipstr_fatal("rate %u‰: no recovery latency measured",
                         permille);
        if (r.checksumMismatches != 0)
            hipstr_fatal("rate %u‰: chaos corrupted benign output",
                         permille);

        table.addRow(
            { formatPercent(permille / 1000.0),
              formatPercent(availability),
              std::to_string(r.faultsInjectedTotal),
              std::to_string(r.crashes),
              std::to_string(r.coreOutages),
              formatDouble(r.meanRoundsToRecover, 1),
              std::to_string(r.degradedRounds) });
        recordRate(permille, cfg, r, availability);
    }
    table.print(std::cout);
    std::cout << "(availability = served/offered under the seeded "
                 "chaos plan; every run crosses a full single-ISA "
                 "blackout and returns to dual-ISA protection)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, "fault_tolerance",
                     runFaultTolerance);
}
