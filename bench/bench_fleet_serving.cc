/**
 * @file
 * Fleet-scale serving: K sharded ProtectedServers behind the
 * deterministic balancer, driven at 3x the single-server soak volume
 * under a mixed clean/attack/fault stream. Three claims measured:
 *
 *  - the fleet serves the whole stream through respawn storms (work
 *    stealing drains stormy shards; nothing is lost or dropped
 *    silently — served + shed + abandoned == offered, always);
 *  - the merged FleetReport — availability and the cross-shard
 *    latency percentiles from HistogramMetric::merge — is a pure
 *    function of the configuration, byte-identical for every
 *    HIPSTR_JOBS value;
 *  - session-pinned per-request outcomes are shard-count invariant:
 *    the commutative outcome-set signature is identical for
 *    K = 1, 2, 4 (placement and completion order change; what
 *    happens to each request does not).
 *
 * A second, deadline-bound run exercises SLO shedding: a tight
 * sloRounds budget with small admission queues sheds the tail with
 * the typed ShedDeadline outcome and availability < 1.
 *
 * Everything in BENCH_fleet_serving.json is modeled/counted
 * (scripts/check_bench_json.py validates the percentile and
 * availability keys); wall-clock lands in the _host file.
 */

#include <iostream>

#include "bench_util.hh"
#include "fleet/fleet.hh"
#include "support/logging.hh"
#include "support/stats.hh"

using namespace hipstr;
using namespace hipstr::bench;

namespace
{

FleetConfig
baseConfig()
{
    FleetConfig cfg;
    cfg.shards = 4;
    cfg.requestCount = benchOptions().smoke ? 300 : 30'000;
    cfg.seed = 0xf1ee7;
    cfg.mix.attackFrac = 0.03;
    cfg.mix.malformedFrac = 0.03;
    cfg.sessions = 64;
    cfg.queueCap = 64;
    // Full tier paces ingestion near the fleet's service rate
    // (~6-7 requests/round for this CMP shape) so latency measures
    // queueing dynamics, not a deliberately unbounded backlog; the
    // SLO run below re-overloads explicitly.
    cfg.batchSize = benchOptions().smoke ? 16 : 8;
    cfg.workStealing = true;

    ServerConfig &s = cfg.server;
    s.workers = benchOptions().smoke ? 4 : 8;
    s.hipstr.diversificationProbability = 1.0;
    s.watchdogQuanta = 3;
    s.sched.supervisor.backoffBaseRounds = 2;
    s.sched.supervisor.backoffCapRounds = 8;
    s.sched.supervisor.quarantineAfter = 4;
    s.sched.supervisor.quarantineRounds = 16;
    s.faults.enabled = true;
    s.faults.quantumFaultRate = 0.005;
    s.faults.coreFailRate = 0.001;
    return cfg;
}

void
checkConservation(const char *what, const FleetReport &r)
{
    if (r.requestsServed + r.requestsShed + r.requestsAbandoned !=
        r.requestsOffered) {
        hipstr_fatal("%s: request leak: %llu + %llu + %llu != %llu",
                     what, (unsigned long long)r.requestsServed,
                     (unsigned long long)r.requestsShed,
                     (unsigned long long)r.requestsAbandoned,
                     (unsigned long long)r.requestsOffered);
    }
    if (r.p50Rounds > r.p99Rounds || r.p99Rounds > r.p999Rounds ||
        r.p999Rounds > r.maxRounds) {
        hipstr_fatal("%s: latency percentiles out of order: "
                     "%llu/%llu/%llu/%llu",
                     what, (unsigned long long)r.p50Rounds,
                     (unsigned long long)r.p99Rounds,
                     (unsigned long long)r.p999Rounds,
                     (unsigned long long)r.maxRounds);
    }
}

void
runFleetServing()
{
    std::cout << "\n=== sharded fleet serving ===\n";
    const FleetConfig base = baseConfig();
    const FatBinary &bin = compiledWorkload("httpd", benchScale(2));
    auto &reg = benchMetrics();

    std::cout << base.shards << " shards x " << base.server.workers
              << " workers, " << base.requestCount
              << " requests, 3% attack + 3% malformed, 0.5% quantum "
                 "faults\n";

    // Headline: the full mixed-traffic fleet, metrics published by
    // the fleet itself under "fleet.*" (availability, merged latency
    // percentiles, per-outcome/per-kind/per-shard families).
    FleetConfig head = base;
    head.metrics = &reg;
    ProtectedFleet fleet(bin, head);
    FleetReport hr = fleet.run();
    checkConservation("headline", hr);
    if (hr.requestsOffered != head.requestCount)
        hipstr_fatal("headline offered %llu of %llu requests",
                     (unsigned long long)hr.requestsOffered,
                     (unsigned long long)head.requestCount);
    if (hr.requestsServed != hr.requestsOffered) {
        hipstr_fatal("headline dropped requests with no SLO set: "
                     "%llu/%llu served",
                     (unsigned long long)hr.requestsServed,
                     (unsigned long long)hr.requestsOffered);
    }
    reg.counter("fleet.signature").set(hr.signature);
    reg.counter("fleet.outcome_set_signature")
        .set(hr.outcomeSetSignature);
    reg.counter("fleet.config.shards").set(base.shards);
    reg.counter("fleet.config.workers").set(base.server.workers);
    reg.counter("fleet.config.requests").set(base.requestCount);
    reg.counter("fleet.config.seed").set(base.seed);

    // Shard-count invariance: the same stream through K = 1, 2, 4 —
    // per-request outcomes (the commutative set signature) must not
    // depend on where sessions were placed.
    uint64_t setSig[3] = { 0, 0, 0 };
    const unsigned ks[3] = { 1, 2, 4 };
    for (int i = 0; i < 3; ++i) {
        FleetConfig kcfg = base;
        kcfg.shards = ks[i];
        ProtectedFleet f(bin, kcfg);
        FleetReport r = f.run();
        checkConservation("k-sweep", r);
        setSig[i] = r.outcomeSetSignature;
        const std::string p =
            "fleet.k" + std::to_string(ks[i]) + ".";
        reg.counter(p + "rounds").set(r.rounds);
        reg.counter(p + "steals").set(r.steals);
        reg.counter(p + "latency_p99_rounds").set(r.p99Rounds);
    }
    if (setSig[0] != setSig[1] || setSig[1] != setSig[2]) {
        hipstr_fatal("outcome set depends on shard count: "
                     "%016llx / %016llx / %016llx",
                     (unsigned long long)setSig[0],
                     (unsigned long long)setSig[1],
                     (unsigned long long)setSig[2]);
    }
    reg.counter("fleet.kinv.match").set(1);

    // SLO run: a tight deadline and small queues under the same
    // traffic — the tail sheds with a typed outcome, never silently.
    FleetConfig slo = base;
    slo.sloRounds = 8;
    slo.queueCap = 8;
    slo.batchSize = base.batchSize * 2;
    ProtectedFleet sloFleet(bin, slo);
    FleetReport sr = sloFleet.run();
    checkConservation("slo", sr);
    if (sr.requestsShed == 0)
        hipstr_fatal("SLO run shed nothing under a tight deadline");
    reg.counter("fleet.slo.requests_offered")
        .set(sr.requestsOffered);
    reg.counter("fleet.slo.requests_served").set(sr.requestsServed);
    reg.counter("fleet.slo.requests_shed").set(sr.requestsShed);
    reg.gauge("fleet.slo.availability").set(sr.availability);
    reg.counter("fleet.slo.latency_p99_rounds").set(sr.p99Rounds);

    TextTable table({ "Run", "Served/Offered", "Shed", "Steals",
                      "p50/p99/p999 (rounds)", "Avail" });
    auto u64 = [](uint64_t v) { return std::to_string(v); };
    auto pct = [&](const FleetReport &r) {
        return u64(r.p50Rounds) + "/" + u64(r.p99Rounds) + "/" +
            u64(r.p999Rounds);
    };
    auto av = [](double a) {
        char buf[16];
        std::snprintf(buf, sizeof buf, "%.4f", a);
        return std::string(buf);
    };
    table.addRow({ "K=4 mixed",
                   u64(hr.requestsServed) + "/" +
                       u64(hr.requestsOffered),
                   u64(hr.requestsShed), u64(hr.steals), pct(hr),
                   av(hr.availability) });
    table.addRow({ "K=4 slo",
                   u64(sr.requestsServed) + "/" +
                       u64(sr.requestsOffered),
                   u64(sr.requestsShed), u64(sr.steals), pct(sr),
                   av(sr.availability) });
    table.print(std::cout);
    std::cout << "(outcome-set signature identical for K=1/2/4; "
              << hr.crashes << " crashes, " << hr.respawns
              << " respawns, " << hr.quarantines
              << " quarantines absorbed by the fleet)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, "fleet_serving", runFleetServing);
}
