#include "record_replay.hh"

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "support/fnv.hh"

namespace hipstr
{
namespace replay
{

namespace
{

uint64_t
fnv1a(const ByteWriter &w)
{
    uint64_t h = kFnvOffsetBasis;
    for (uint8_t b : w.data())
        fnvByte(h, b);
    return h;
}

/**
 * Shard k of a K-shard run as the journal sees it: the fault config
 * it runs, its worker count, and where its pids and core ids start in
 * the journal's flat global id spaces. The standalone server is the
 * single shard k = 0.
 */
struct Shard
{
    FaultPlanConfig faults;
    unsigned workers;
    uint32_t pidBase;
    uint32_t coreBase;
};

Shard
shardOf(const ServerConfig &sc, unsigned k)
{
    return Shard{ sc.faults, sc.workers, k * sc.workers,
                  k * (sc.cmp.riscCores + sc.cmp.ciscCores) };
}

std::vector<Shard>
shardsOf(const ServerConfig &cfg)
{
    return { shardOf(cfg, 0) };
}

std::vector<Shard>
shardsOf(const FleetConfig &cfg)
{
    // Decorate the exact derived fault config each shard runs
    // (per-shard seed included) so a recorded run draws the same
    // fault stream as an un-recorded one.
    std::vector<Shard> out;
    for (unsigned k = 0; k < cfg.shards; ++k)
        out.push_back(shardOf(shardServerConfig(cfg, k), k));
    return out;
}

/** Every worker's runtime, in global-pid order. @{ */
std::vector<HipstrRuntime *>
runtimesOf(ProtectedServer &srv)
{
    std::vector<HipstrRuntime *> out;
    for (const auto &w : srv.workers())
        out.push_back(&w->runtime());
    return out;
}

std::vector<HipstrRuntime *>
runtimesOf(ProtectedFleet &fleet)
{
    std::vector<HipstrRuntime *> out;
    for (unsigned k = 0; k < fleet.config().shards; ++k) {
        std::vector<HipstrRuntime *> rts = runtimesOf(fleet.shard(k));
        out.insert(out.end(), rts.begin(), rts.end());
    }
    return out;
}
/** @} */

template <class Plan>
std::vector<const FaultPlan *>
planPointers(const std::vector<std::unique_ptr<Plan>> &plans)
{
    std::vector<const FaultPlan *> out;
    for (const auto &p : plans)
        out.push_back(p.get());
    return out;
}

// ---------------------------------------------------------------
// Fault plans.
// ---------------------------------------------------------------

/**
 * FaultPlan decorator that answers from the real plan and journals
 * every non-trivial answer under global ids. The per-pid fault log is
 * written from concurrently running quanta, but each pid runs at most
 * one quantum per round on one host thread, so distinct pids never
 * race and one pid's entries are ordered by its quantum serial.
 * Outage queries happen in the scheduler's sequential supervision
 * step.
 */
class RecordingFaultPlan : public FaultPlan
{
  public:
    explicit RecordingFaultPlan(const Shard &s)
        : FaultPlan(s.faults), _shard(s), _faultLog(s.workers)
    {
    }

    QuantumFault
    quantumFault(uint32_t pid, uint64_t serial) const override
    {
        QuantumFault f = FaultPlan::quantumFault(pid, serial);
        if (f.kind != FaultKind::None && pid < _faultLog.size())
            _faultLog[pid].push_back({ serial, f });
        return f;
    }

    uint32_t
    coreOutageAt(unsigned coreId, IsaKind isa,
                 uint64_t round) const override
    {
        uint32_t len = FaultPlan::coreOutageAt(coreId, isa, round);
        if (len != 0)
            _outageLog.push_back(OutageRec{ coreId, isa, round, len });
        return len;
    }

    /** Journal everything logged since the last flush: faults in pid
     *  order, then outages in query order. */
    void
    flush(JournalWriter &out) const
    {
        for (uint32_t pid = 0; pid < _faultLog.size(); ++pid) {
            for (const auto &[serial, f] : _faultLog[pid]) {
                ByteWriter w;
                w.u32(_shard.pidBase + pid);
                w.u64(serial);
                w.u8(static_cast<uint8_t>(f.kind));
                w.u64(f.payload);
                out.record(RecordTag::Fault, w);
            }
            _faultLog[pid].clear();
        }
        for (const OutageRec &o : _outageLog) {
            ByteWriter w;
            w.u32(_shard.coreBase + o.coreId);
            w.u8(static_cast<uint8_t>(o.isa));
            w.u64(o.round);
            w.u32(o.len);
            out.record(RecordTag::Outage, w);
        }
        _outageLog.clear();
    }

  private:
    struct OutageRec
    {
        uint32_t coreId;
        IsaKind isa;
        uint64_t round;
        uint32_t len;
    };

    Shard _shard;
    /** Indexed by local pid: (quantum serial, fault). Mutable because
     *  the query API is const. */
    mutable std::vector<std::vector<std::pair<uint64_t, QuantumFault>>>
        _faultLog;
    mutable std::vector<OutageRec> _outageLog;
};

/**
 * FaultPlan that answers one shard's quantum faults and core outages
 * from a parsed journal, rebasing its ids into the journal's global
 * spaces; wedge lengths (a pure function of the payload) delegate to
 * the real plan's derivation.
 */
class ReplayFaultPlan : public FaultPlan
{
  public:
    ReplayFaultPlan(const Shard &s, const Journal &j)
        : FaultPlan(s.faults), _journal(j), _pidBase(s.pidBase),
          _coreBase(s.coreBase)
    {
    }

    QuantumFault
    quantumFault(uint32_t pid, uint64_t serial) const override
    {
        auto it = _journal.faults.find({ _pidBase + pid, serial });
        return it == _journal.faults.end() ? QuantumFault{}
                                           : it->second;
    }

    uint32_t
    coreOutageAt(unsigned coreId, IsaKind isa,
                 uint64_t round) const override
    {
        (void)isa;
        auto it = _journal.outages.find({ _coreBase + coreId, round });
        return it == _journal.outages.end() ? 0 : it->second;
    }

  private:
    const Journal &_journal;
    uint32_t _pidBase;
    uint32_t _coreBase;
};

// ---------------------------------------------------------------
// Config hashing.
// ---------------------------------------------------------------

/**
 * Behavioural hash of a ServerConfig: every knob that affects what a
 * run does. A journal records the hash of the config it was captured
 * under; replaying against a different one fails fast with
 * ConfigMismatch instead of diverging mysteriously mid-run. @p shard
 * says whether the config is a fleet shard's, whose serve rounds the
 * fleet drives, or a lone server's, which draws its own stream.
 */
uint64_t
serverConfigHash(const ServerConfig &cfg, bool shard)
{
    // Serialize every behavioural knob, then FNV-1a the bytes.
    // Observer pointers (trace, metrics, tap, faultPlanOverride) are
    // deliberately excluded: they change what is observed, not what
    // happens.
    ByteWriter w;
    w.u32(cfg.workers);
    w.u32(cfg.cmp.riscCores);
    w.u32(cfg.cmp.ciscCores);
    w.u64(cfg.sched.quantumInsts);
    w.u32(cfg.sched.respawnLimit);
    w.u32(cfg.sched.supervisor.backoffBaseRounds);
    w.u32(cfg.sched.supervisor.backoffCapRounds);
    w.u32(cfg.sched.supervisor.quarantineAfter);
    w.u32(cfg.sched.supervisor.quarantineRounds);
    w.u64(cfg.requestCount);
    w.u64(cfg.seed);
    w.f64(cfg.mix.dynamicFrac);
    w.f64(cfg.mix.postFrac);
    w.f64(cfg.mix.malformedFrac);
    w.f64(cfg.mix.attackFrac);
    w.u64(cfg.costs.staticInsts);
    w.u64(cfg.costs.dynamicInsts);
    w.u64(cfg.costs.postInsts);
    w.u64(cfg.costs.malformedInsts);
    w.u64(cfg.costs.attackInsts);
    const PsrConfig &p = cfg.hipstr.psr;
    w.u32(p.optLevel);
    w.u32(p.randSpaceBytes);
    w.boolean(p.randomizeCallingConvention);
    w.boolean(p.randomizeRegisters);
    w.boolean(p.relocateRegsToMemory);
    w.boolean(p.randomizeSlots);
    w.u32(p.codeCacheBytes);
    w.u32(p.ratEntries);
    w.u32(p.regCacheEntries);
    // The fixed formation limits keep their hash slots, so config
    // hashes and recorded journals stay stable.
    w.u32(kMaxSuperblockBlocks);
    w.u32(PsrVm::kTraceHotThreshold);
    w.u32(kTraceMaxBlocks);
    w.boolean(p.isomeronMode);
    w.u64(p.seed);
    w.f64(cfg.hipstr.diversificationProbability);
    w.boolean(cfg.hipstr.migrateOnSecurityEvents);
    w.u64(cfg.hipstr.phaseIntervalInsts);
    w.u32(cfg.hipstr.migrationLogCap);
    w.u8(static_cast<uint8_t>(cfg.hipstr.startIsa));
    w.u64(cfg.hipstr.policySeed);
    w.u64(cfg.outputCap);
    w.boolean(cfg.verifyOutput);
    w.boolean(cfg.faults.enabled);
    w.u64(cfg.faults.seed);
    w.f64(cfg.faults.quantumFaultRate);
    w.f64(cfg.faults.coreFailRate);
    w.u32(cfg.faults.outageRoundsMin);
    w.u32(cfg.faults.outageRoundsMax);
    w.u32(cfg.faults.wedgeQuantaMin);
    w.u32(cfg.faults.wedgeQuantaMax);
    w.u8(static_cast<uint8_t>(cfg.faults.scriptedOutageIsa));
    w.u64(cfg.faults.scriptedOutageRound);
    w.u32(cfg.faults.scriptedOutageRounds);
    w.u32(cfg.watchdogQuanta);
    w.boolean(shard);
    return fnv1a(w);
}

/**
 * Behavioural hash of a FleetConfig: every derived shard config's
 * hash plus the balancer knobs (session count, ring shape, queue
 * bound, SLO, batch size, stealing). Observers — trace/metrics/tap,
 * keepOutcomes, metricsPrefix — and the interleaving-only
 * permuteShardStep knob are excluded: a journal recorded with one
 * shard-step order must replay under any other.
 */
uint64_t
fleetConfigHash(const FleetConfig &cfg)
{
    ByteWriter w;
    w.u32(cfg.shards);
    w.u64(cfg.requestCount);
    w.u64(cfg.seed);
    w.f64(cfg.mix.dynamicFrac);
    w.f64(cfg.mix.postFrac);
    w.f64(cfg.mix.malformedFrac);
    w.f64(cfg.mix.attackFrac);
    w.u64(cfg.costs.staticInsts);
    w.u64(cfg.costs.dynamicInsts);
    w.u64(cfg.costs.postInsts);
    w.u64(cfg.costs.malformedInsts);
    w.u64(cfg.costs.attackInsts);
    w.u64(cfg.sessions);
    w.u32(cfg.vnodesPerShard);
    w.u64(static_cast<uint64_t>(cfg.queueCap));
    w.u64(cfg.sloRounds);
    w.u32(cfg.batchSize);
    w.boolean(cfg.workStealing);
    // Every derived shard config, k order: two fleets hash equal iff
    // every shard would behave identically. shardPlanOverrides do not
    // feed shardServerConfig's hashed fields (faultPlanOverride is an
    // excluded observer), so a recording config and a replay config
    // carrying different decorators still hash the same — by design.
    for (unsigned k = 0; k < cfg.shards; ++k)
        w.u64(serverConfigHash(shardServerConfig(cfg, k), true));
    return fnv1a(w);
}

// ---------------------------------------------------------------
// Recording.
// ---------------------------------------------------------------

/**
 * The recorder tap: buffers one round's draws and flushes every
 * journaled stream at the round boundary in a fixed order — draws,
 * then each shard's fault plan in shard order, then every worker's
 * coins in global-pid order, then the Sync record and, on cadence, a
 * Checkpoint.
 */
class Recorder : public ServerTap
{
  public:
    Recorder(const std::string &path, uint64_t configHash,
             const std::vector<Shard> &shards)
        : _out(path, configHash)
    {
        for (const Shard &s : shards) {
            if (s.faults.enabled)
                _plans.push_back(std::make_unique<RecordingFaultPlan>(s));
        }
    }
    Recorder(const Recorder &) = delete;
    Recorder &operator=(const Recorder &) = delete;

    /** The recording plans in shard order; empty without faults. */
    std::vector<const FaultPlan *>
    plans() const
    {
        return planPointers(_plans);
    }

    /** Capture the coin flips of @p rts (global-pid order). */
    void
    logCoins(const std::vector<HipstrRuntime *> &rts)
    {
        _coinLogs.resize(rts.size());
        for (size_t i = 0; i < rts.size(); ++i)
            rts[i]->coinLog = &_coinLogs[i];
    }

    /** Journal @p save's checkpoint every @p every rounds (0 =
     *  never). */
    void
    checkpointEvery(uint64_t every,
                    std::function<void(ByteWriter &)> save)
    {
        _every = every;
        _save = std::move(save);
    }

    void
    requestDrawn(const Request &r) override
    {
        ++requestsDrawn;
        _draws.push_back(r);
    }

    void
    roundEnd(uint64_t round, uint64_t sig) override
    {
        for (const Request &r : _draws) {
            ByteWriter w;
            Request::fields(w, r);
            _out.record(RecordTag::Request, w);
        }
        _draws.clear();
        for (const auto &plan : _plans)
            plan->flush(_out);
        for (size_t gpid = 0; gpid < _coinLogs.size(); ++gpid) {
            for (uint8_t flip : _coinLogs[gpid]) {
                ByteWriter w;
                w.u32(uint32_t(gpid));
                w.u8(flip);
                _out.record(RecordTag::Coin, w);
            }
            _coinLogs[gpid].clear();
        }
        {
            ByteWriter w;
            w.u64(round);
            w.u64(sig);
            _out.record(RecordTag::Sync, w);
        }
        if (_every != 0 && round % _every == 0) {
            _checkpoint.clear();
            _save(_checkpoint);
            ByteWriter w;
            w.u64(round);
            w.u32(uint32_t(_checkpoint.size()));
            _out.record(RecordTag::Checkpoint, w, _checkpoint);
            ++checkpoints;
        }
    }

    /** Write the End record and close; returns the journal size. */
    uint64_t
    finish(uint64_t rounds, uint64_t signature, uint64_t served)
    {
        ByteWriter end;
        end.u64(rounds);
        end.u64(signature);
        end.u64(served);
        _out.record(RecordTag::End, end);
        _out.close();
        return _out.bytesWritten();
    }

    uint64_t requestsDrawn = 0;
    uint64_t checkpoints = 0;

  private:
    JournalWriter _out;
    std::vector<std::unique_ptr<RecordingFaultPlan>> _plans;
    std::vector<std::vector<uint8_t>> _coinLogs;
    std::vector<Request> _draws;
    uint64_t _every = 0;
    std::function<void(ByteWriter &)> _save;
    /** Reused by every checkpoint, which are all about one size. */
    ByteWriter _checkpoint;
};

} // namespace

RecordResult
recordRun(const FatBinary &bin, const ServerConfig &cfg,
          const std::string &path, ThreadPool *pool,
          const RecordOptions &opts)
{
    Recorder rec(path, serverConfigHash(cfg, false), shardsOf(cfg));
    ServerConfig rcfg = cfg;
    rcfg.tap = &rec;
    std::vector<const FaultPlan *> plans = rec.plans();
    if (!plans.empty())
        rcfg.faultPlanOverride = plans.front();

    ProtectedServer srv(bin, rcfg);
    rec.logCoins(runtimesOf(srv));
    rec.checkpointEvery(opts.checkpointEveryRounds,
                        [&srv](ByteWriter &w) { srv.saveCheckpoint(w); });
    ServerReport report = srv.run(pool);

    RecordResult res;
    res.report = report;
    res.rounds = report.rounds;
    res.journalBytes = rec.finish(report.rounds, report.signature,
                                  report.requestsServed);
    res.requestsDrawn = rec.requestsDrawn;
    res.checkpoints = rec.checkpoints;
    return res;
}

FleetRecordResult
recordFleetRun(const FatBinary &bin, const FleetConfig &cfg,
               const std::string &path, ThreadPool *pool)
{
    Recorder rec(path, fleetConfigHash(cfg), shardsOf(cfg));
    FleetConfig rcfg = cfg;
    rcfg.tap = &rec;
    std::vector<const FaultPlan *> plans = rec.plans();
    if (!plans.empty())
        rcfg.shardPlanOverrides = plans;

    ProtectedFleet fleet(bin, rcfg);
    rec.logCoins(runtimesOf(fleet));
    FleetReport report = fleet.run(pool);

    FleetRecordResult res;
    res.report = report;
    res.rounds = report.rounds;
    res.journalBytes = rec.finish(report.rounds, report.signature,
                                  report.requestsServed);
    res.requestsDrawn = rec.requestsDrawn;
    return res;
}

// ---------------------------------------------------------------
// Replay.
// ---------------------------------------------------------------

namespace
{

/**
 * The replayer tap: requests answer from the journal, faults from
 * journal-backed plans, coins from per-worker feeds. Every round is
 * verified in roundEnd, which throws ReplayError at the first
 * disagreement: both serve loops call it on the caller's thread with
 * every quantum of the round already joined, so unwinding out of the
 * loop is safe.
 */
class Replayer : public ServerTap
{
  public:
    /** Parse @p path, keeping it open, and require it was recorded
     *  under @p configHash. */
    Replayer(const std::string &path, uint64_t configHash,
             const std::vector<Shard> &shards)
        : _file(path), _j(_file.journal())
    {
        if (_j.configHash != configHash) {
            throw ReplayError(ReplayErrc::ConfigMismatch,
                              "journal was recorded under a different "
                              "configuration");
        }
        for (const Shard &s : shards) {
            if (s.faults.enabled)
                _plans.push_back(
                    std::make_unique<ReplayFaultPlan>(s, _j));
        }
    }
    /** The plans point into _file's journal. */
    Replayer(const Replayer &) = delete;
    Replayer &operator=(const Replayer &) = delete;

    const Journal &journal() const { return _j; }

    /** Round @p round's checkpoint, read from the open journal. */
    std::vector<uint8_t>
    checkpoint(uint64_t round) const
    {
        return _file.checkpoint(round);
    }

    /** The replay plans in shard order; empty without faults. */
    std::vector<const FaultPlan *>
    plans() const
    {
        return planPointers(_plans);
    }

    /**
     * Feed each of @p rts (global-pid order) the coin flips of every
     * round past @p start, in journal order. Feeds are per-worker, so
     * concurrent quanta never share one.
     */
    void
    feedCoins(const std::vector<HipstrRuntime *> &rts, uint64_t start)
    {
        _rts = rts;
        _feeds.assign(rts.size(), {});
        for (const auto &kv : _j.rounds) {
            if (kv.first <= start)
                continue;
            for (const auto &c : kv.second.coins) {
                if (c.first >= _feeds.size())
                    throw ReplayError(ReplayErrc::Corrupt,
                                      "journal coin names bad worker");
                _feeds[c.first].push_back(c.second);
            }
        }
        for (size_t i = 0; i < rts.size(); ++i)
            rts[i]->coinFeed = &_feeds[i];
    }

    bool
    supplyRequest(uint64_t id, Request &req) override
    {
        auto it = _j.requests.find(id);
        if (it == _j.requests.end())
            return false;
        req = it->second;
        return true;
    }

    void
    roundEnd(uint64_t round, uint64_t sig) override
    {
        // A starved worker also moves the signature; name the cause.
        for (size_t gpid = 0; gpid < _rts.size(); ++gpid) {
            if (_rts[gpid]->coinStarved) {
                throw ReplayError(
                    ReplayErrc::Divergence,
                    "worker " + std::to_string(gpid) +
                        " drew more coins than were recorded");
            }
        }
        auto it = _j.rounds.find(round);
        if (it == _j.rounds.end()) {
            throw ReplayError(ReplayErrc::Divergence,
                              "replay reached round " +
                                  std::to_string(round) +
                                  " which the recording never ran");
        }
        ++syncChecks;
        if (it->second.syncSig != sig) {
            throw ReplayError(ReplayErrc::Divergence,
                              "sync signature mismatch at round " +
                                  std::to_string(round));
        }
    }

    /** Verify the final report against the End record. */
    void
    finish(uint64_t rounds, uint64_t signature, uint64_t served) const
    {
        if (rounds != _j.endRounds || served != _j.endServed ||
            signature != _j.endSignature) {
            throw ReplayError(ReplayErrc::Divergence,
                              "replayed run's final report disagrees "
                              "with the recording");
        }
    }

    uint64_t syncChecks = 0;

  private:
    JournalFile _file;
    const Journal &_j; ///< _file's journal
    std::vector<std::unique_ptr<ReplayFaultPlan>> _plans;
    std::vector<HipstrRuntime *> _rts;
    std::vector<std::deque<uint8_t>> _feeds;
};

ReplayResult
drive(const FatBinary &bin, const ServerConfig &cfg,
      const std::string &path, uint64_t fromRound, ThreadPool *pool)
{
    Replayer rep(path, serverConfigHash(cfg, false), shardsOf(cfg));
    ServerConfig rcfg = cfg;
    // The journal already carries every campaign rewrite; replaying
    // with a live engine attached would double-feed it observations.
    rcfg.campaign = nullptr;
    rcfg.tap = &rep;
    std::vector<const FaultPlan *> plans = rep.plans();
    if (!plans.empty())
        rcfg.faultPlanOverride = plans.front();

    ProtectedServer srv(bin, rcfg);
    srv.beginRun();

    // Only the one checkpoint the window restores is read, and it is
    // dropped before the tail runs.
    uint64_t start = rep.journal().checkpointAtOrBefore(fromRound);
    if (start != 0) {
        std::vector<uint8_t> checkpoint = rep.checkpoint(start);
        try {
            ByteReader r(checkpoint);
            srv.loadCheckpoint(r);
            if (!r.atEnd())
                throw SerializeError(SerializeErrc::Corrupt,
                                     "trailing bytes after checkpoint");
        } catch (const SerializeError &e) {
            throw ReplayError(ReplayErrc::Corrupt,
                              std::string("checkpoint unusable: ") +
                                  e.what());
        }
    }
    rep.feedCoins(runtimesOf(srv), start);

    while (srv.stepRound(pool)) {
    }
    ServerReport report = srv.finishRun();
    rep.finish(report.rounds, report.signature, report.requestsServed);

    ReplayResult res;
    res.report = report;
    res.rounds = report.rounds - start;
    res.startRound = start;
    res.syncChecks = rep.syncChecks;
    return res;
}

} // namespace

ReplayResult
replayRun(const FatBinary &bin, const ServerConfig &cfg,
          const std::string &path, ThreadPool *pool)
{
    return drive(bin, cfg, path, 0, pool);
}

ReplayResult
replayWindow(const FatBinary &bin, const ServerConfig &cfg,
             const std::string &path, uint64_t fromRound,
             ThreadPool *pool)
{
    return drive(bin, cfg, path, fromRound, pool);
}

FleetReplayResult
replayFleetRun(const FatBinary &bin, const FleetConfig &cfg,
               const std::string &path, ThreadPool *pool)
{
    Replayer rep(path, fleetConfigHash(cfg), shardsOf(cfg));
    FleetConfig rcfg = cfg;
    // As for the server: the journal carries the campaign's rewrites.
    rcfg.campaign = nullptr;
    rcfg.tap = &rep;
    std::vector<const FaultPlan *> plans = rep.plans();
    if (!plans.empty())
        rcfg.shardPlanOverrides = plans;

    ProtectedFleet fleet(bin, rcfg);
    rep.feedCoins(runtimesOf(fleet), 0);
    FleetReport report = fleet.run(pool);
    rep.finish(report.rounds, report.signature, report.requestsServed);

    FleetReplayResult res;
    res.report = report;
    res.rounds = report.rounds;
    res.syncChecks = rep.syncChecks;
    return res;
}

} // namespace replay
} // namespace hipstr
