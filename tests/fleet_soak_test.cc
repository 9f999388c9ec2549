/**
 * @file
 * Fleet soak (the soak tier): 20000 mixed clean/attack/fault
 * requests across 4 shards, three ways —
 *
 *  1. serially, under recording (the journal taps every balancer
 *     draw, per-shard fault firing, and coin flip);
 *  2. on a wide pool, un-recorded — the merged FleetReport must be
 *     byte-equal to the serial recorded one (recording perturbs
 *     nothing, and HIPSTR_JOBS is invisible in the result);
 *  3. replayed bit-exactly from the journal, every fleet round's
 *     sync signature verified.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "compiler/compile.hh"
#include "replay/record_replay.hh"
#include "support/parallel.hh"
#include "workloads/workloads.hh"

using namespace hipstr;
using namespace hipstr::replay;

namespace
{

void
expectReportsEqual(const FleetReport &a, const FleetReport &b)
{
    EXPECT_EQ(a.signature, b.signature);
    EXPECT_EQ(a.outcomeSetSignature, b.outcomeSetSignature);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.requestsOffered, b.requestsOffered);
    EXPECT_EQ(a.requestsServed, b.requestsServed);
    EXPECT_EQ(a.requestsShed, b.requestsShed);
    EXPECT_EQ(a.requestsAbandoned, b.requestsAbandoned);
    EXPECT_EQ(a.requestsRetried, b.requestsRetried);
    EXPECT_EQ(a.steals, b.steals);
    EXPECT_EQ(a.backpressureStalls, b.backpressureStalls);
    EXPECT_EQ(a.p50Rounds, b.p50Rounds);
    EXPECT_EQ(a.p99Rounds, b.p99Rounds);
    EXPECT_EQ(a.p999Rounds, b.p999Rounds);
    EXPECT_EQ(a.maxRounds, b.maxRounds);
    EXPECT_DOUBLE_EQ(a.meanLatencyRounds, b.meanLatencyRounds);
    EXPECT_DOUBLE_EQ(a.availability, b.availability);
    EXPECT_EQ(a.crashes, b.crashes);
    EXPECT_EQ(a.respawns, b.respawns);
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.faultsInjectedTotal, b.faultsInjectedTotal);
    ASSERT_EQ(a.shardReports.size(), b.shardReports.size());
    for (size_t k = 0; k < a.shardReports.size(); ++k) {
        EXPECT_EQ(a.shardReports[k].signature,
                  b.shardReports[k].signature)
            << "shard " << k;
    }
}

} // namespace

TEST(FleetSoak, TwentyThousandRequestsRecordedAndReplayed)
{
    WorkloadConfig wcfg;
    wcfg.scale = 1;
    FatBinary bin = compileModule(buildWorkload("httpd", wcfg));

    FleetConfig cfg;
    cfg.shards = 4;
    cfg.requestCount = 20'000;
    cfg.sessions = 128;
    cfg.batchSize = 64;
    cfg.mix.attackFrac = 0.03;
    cfg.mix.malformedFrac = 0.05;
    cfg.server.workers = 6;
    cfg.server.hipstr.diversificationProbability = 1.0;
    cfg.server.watchdogQuanta = 3;
    cfg.server.sched.respawnLimit = 0;
    cfg.server.sched.supervisor.backoffBaseRounds = 2;
    cfg.server.sched.supervisor.backoffCapRounds = 8;
    cfg.server.sched.supervisor.quarantineAfter = 4;
    cfg.server.sched.supervisor.quarantineRounds = 16;
    cfg.server.faults.enabled = true;
    cfg.server.faults.quantumFaultRate = 0.002;
    cfg.server.faults.coreFailRate = 0.0005;

    const std::string path = "fleet_soak_test.hjl";

    // Pass 1: serial, recorded.
    ThreadPool::setGlobalThreads(0);
    FleetRecordResult rec = recordFleetRun(bin, cfg, path);
    EXPECT_EQ(rec.report.requestsOffered, cfg.requestCount);
    EXPECT_EQ(rec.report.requestsServed +
                  rec.report.requestsShed +
                  rec.report.requestsAbandoned,
              rec.report.requestsOffered);
    EXPECT_EQ(rec.report.requestsServed, cfg.requestCount)
        << "soak mix should fully serve with respawn + stealing";
    EXPECT_GT(rec.report.crashes, 0u);
    EXPECT_GT(rec.report.faultsInjectedTotal, 0u);
    EXPECT_GT(rec.journalBytes, 0u);
    EXPECT_EQ(rec.requestsDrawn, cfg.requestCount);

    // Pass 2: wide pool, un-recorded. Identical merged report.
    ThreadPool::setGlobalThreads(7);
    ProtectedFleet fleet(bin, cfg);
    FleetReport wide = fleet.run();
    expectReportsEqual(rec.report, wide);

    // Pass 3: bit-exact replay through the PR 7 journal, still wide.
    FleetReplayResult rep = replayFleetRun(bin, cfg, path);
    expectReportsEqual(rec.report, rep.report);
    EXPECT_EQ(rep.syncChecks, rec.rounds);

    ThreadPool::setGlobalThreads(0);
    std::remove(path.c_str());
}
