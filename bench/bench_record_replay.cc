/**
 * @file
 * Record/replay cost + fidelity sweep. Three server runs of the same
 * seeded chaos configuration: a plain baseline, a recorded run
 * (journal + periodic checkpoints), and a bit-exact replay of that
 * journal, plus a windowed replay restored from a mid-run checkpoint.
 * The headline claims measured here:
 *
 *  - recording is zero-perturbation: the recorded run's report
 *    signature equals the baseline's byte for byte;
 *  - replay is bit-exact: every round's sync signature verifies and
 *    the final report matches the journal's End record;
 *  - the journal and checkpoint sizes are pure functions of the
 *    configuration (deterministic across HIPSTR_JOBS).
 *
 * Wall-clock costs of the runs and the process's peak resident set
 * size (ru_maxrss, MiB) land in the _host.json file;
 * everything in BENCH_record_replay.json is modeled/counted and
 * byte-identical for every HIPSTR_JOBS value.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>

#include "bench_util.hh"
#include "replay/record_replay.hh"
#include "server/protected_server.hh"
#include "support/logging.hh"
#include "support/stats.hh"

using namespace hipstr;
using namespace hipstr::bench;
using namespace hipstr::replay;

namespace
{

ServerConfig
recordConfig()
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
    cfg.faults.quantumFaultRate = 0.01;
    cfg.faults.coreFailRate = 0.002;
    cfg.faults.scriptedOutageIsa = IsaKind::Risc;
    cfg.faults.scriptedOutageRound = 40;
    cfg.faults.scriptedOutageRounds = 30;
    return cfg;
}

double
wallSeconds(const std::function<void()> &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

void
runRecordReplay()
{
    std::cout << "\n=== record/replay fidelity & cost ===\n";
    const FatBinary &bin = compiledWorkload("httpd", benchScale(2));
    const ServerConfig cfg = recordConfig();
    const std::string path = "BENCH_record_replay.journal.tmp";

    std::cout << cfg.workers << " workers, " << cfg.requestCount
              << " requests, 1% quantum faults, scripted "
              << isaName(cfg.faults.scriptedOutageIsa)
              << " blackout at round "
              << cfg.faults.scriptedOutageRound << "\n";

    ServerReport base;
    double baseSec = wallSeconds([&] {
        ProtectedServer srv(bin, cfg);
        base = srv.run();
    });

    RecordOptions opts;
    opts.checkpointEveryRounds = 32;
    RecordResult rec;
    double recSec = wallSeconds(
        [&] { rec = recordRun(bin, cfg, path, nullptr, opts); });

    if (rec.report.signature != base.signature ||
        rec.report.rounds != base.rounds) {
        hipstr_fatal("recording perturbed the run: %016llx != %016llx",
                     (unsigned long long)rec.report.signature,
                     (unsigned long long)base.signature);
    }

    ReplayResult rep;
    double repSec =
        wallSeconds([&] { rep = replayRun(bin, cfg, path); });
    if (rep.report.signature != rec.report.signature)
        hipstr_fatal("replay diverged from the recording");

    ReplayResult win;
    double winSec = wallSeconds(
        [&] { win = replayWindow(bin, cfg, path, rec.rounds / 2); });
    if (win.report.signature != rec.report.signature)
        hipstr_fatal("windowed replay diverged from the recording");
    if (win.startRound == 0)
        hipstr_fatal("windowed replay found no mid-run checkpoint");

    TextTable table({ "Run", "Rounds", "Signature ok",
                      "Journal bytes" });
    table.addRow({ "baseline", std::to_string(base.rounds), "-",
                   "-" });
    table.addRow({ "record", std::to_string(rec.rounds), "yes",
                   std::to_string(rec.journalBytes) });
    table.addRow({ "replay", std::to_string(rep.rounds), "yes",
                   "-" });
    table.addRow({ "window@" + std::to_string(win.startRound),
                   std::to_string(win.rounds), "yes", "-" });
    table.print(std::cout);
    std::cout << "(record == baseline byte-for-byte; both replays "
                 "verified every round sync signature)\n";

    auto &reg = benchMetrics();
    reg.counter("record.rounds").set(rec.rounds);
    reg.counter("record.requests").set(rec.report.requestsServed);
    reg.counter("record.requests_drawn").set(rec.requestsDrawn);
    reg.counter("record.journal_bytes").set(rec.journalBytes);
    reg.counter("record.checkpoints").set(rec.checkpoints);
    reg.counter("record.faults_injected")
        .set(rec.report.faultsInjectedTotal);
    reg.counter("record.signature").set(rec.report.signature);
    reg.counter("record.zero_perturbation")
        .set(rec.report.signature == base.signature ? 1 : 0);
    reg.counter("replay.match").set(1);
    reg.counter("replay.sync_checks").set(rep.syncChecks);
    reg.counter("replay.rounds").set(rep.rounds);
    reg.counter("window.start_round").set(win.startRound);
    reg.counter("window.rounds").set(win.rounds);
    reg.counter("window.sync_checks").set(win.syncChecks);

    benchHostMetric("baseline_wall_seconds", baseSec);
    benchHostMetric("record_wall_seconds", recSec);
    benchHostMetric("replay_wall_seconds", repSec);
    benchHostMetric("window_wall_seconds", winSec);
    // The process high-water mark; ru_maxrss is in KiB.
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    benchHostMetric("peak_rss_mb", double(ru.ru_maxrss) / 1024.0);

    std::remove(path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, "record_replay", runRecordReplay);
}
