/**
 * @file
 * The protected-server front-end: a pool of HIPStR-protected worker
 * processes on a modeled heterogeneous-ISA CMP serving a synthetic
 * request stream — the paper's Section 3.5/5.3 deployment scenario
 * made runnable. Records per-request latency, throughput in modeled
 * time, and the defense's bookkeeping (security events, migrations,
 * crashes, respawns).
 */

#ifndef HIPSTR_SERVER_PROTECTED_SERVER_HH
#define HIPSTR_SERVER_PROTECTED_SERVER_HH

#include <array>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "binary/fatbin.hh"
#include "fault/plan.hh"
#include "server/cmp_model.hh"
#include "server/guest_process.hh"
#include "server/request_stream.hh"
#include "server/scheduler.hh"
#include "support/fnv.hh"
#include "support/serialize.hh"
#include "telemetry/metrics.hh"

namespace hipstr
{

namespace attack
{
class CampaignEngine;
}

/**
 * Observation/substitution seam for the record/replay layer
 * (src/replay). The server consults the tap at the three points where
 * its behaviour is not a pure function of the configuration alone:
 * request materialization, and the end of every scheduler round. A
 * null tap (the default) leaves the serve loop exactly as it was —
 * every hook sits on a per-round (not per-instruction) path, so even
 * a non-null tap costs nothing measurable. The fleet (src/fleet)
 * taps its balancer loop through the same interface.
 */
class ServerTap
{
  public:
    virtual ~ServerTap() = default;

    /**
     * Offer to supply request @p id instead of drawing it from the
     * stream (a replayer answers from its journal). Return false to
     * let the server draw normally.
     */
    virtual bool supplyRequest(uint64_t id, Request &out)
    {
        (void)id;
        (void)out;
        return false;
    }

    /** A request was drawn from the live stream (a recorder logs it). */
    virtual void requestDrawn(const Request &r) { (void)r; }

    /**
     * A scheduler round completed. @p syncSig is the server's
     * round-sync signature (roundSyncSignature()) — the recorder
     * journals it as a sync point; the replayer compares it against
     * the journal to detect divergence at round granularity.
     */
    virtual void roundEnd(uint64_t round, uint64_t syncSig)
    {
        (void)round;
        (void)syncSig;
    }
};

/** Full server configuration. */
struct ServerConfig
{
    unsigned workers = 8;        ///< worker process pool size
    CmpConfig cmp;               ///< modeled machine
    SchedulerConfig sched;       ///< quantum + respawn limit
    uint64_t requestCount = 1000;
    uint64_t seed = 0x5eed;      ///< stream + per-process seeds
    RequestMix mix;
    RequestCosts costs;
    HipstrConfig hipstr;         ///< per-worker runtime template
    size_t outputCap = 4096;     ///< per-worker retained output cap

    /**
     * Verify each worker's untainted program runs against a reference
     * interpreter checksum computed once up front.
     */
    bool verifyOutput = true;

    /**
     * Optional structured-trace sink. Wired through to the scheduler
     * (per-core quantum spans) and every worker runtime/VM, and used
     * by the server itself for request-lifecycle events
     * (TraceCategory::Server). nullptr disables all tracing.
     */
    telemetry::TraceBuffer *trace = nullptr;

    /**
     * Deterministic fault injection (src/fault). Disabled by default;
     * when faults.enabled the server builds one FaultPlan from this
     * config and wires it into the scheduler (core outages, degraded
     * mode) and every worker (transient quantum faults). With it
     * disabled the whole fault machinery is compiled in but
     * unreachable — a fault-free run is byte-identical to one built
     * without the subsystem.
     */
    FaultPlanConfig faults;

    /**
     * Kill a worker wedged for this many consecutive quanta
     * (GuestProcessConfig::watchdogQuanta). Only reachable with
     * faults.enabled — wedges come from the plan.
     */
    uint32_t watchdogQuanta = 4;

    /**
     * Optional metric sink: the run maintains a "server.degraded_mode"
     * gauge (1 while an entire ISA is offline) and, when faults are
     * enabled, publishes the fault/supervision counters at the end of
     * the run. nullptr disables.
     */
    telemetry::MetricRegistry *metrics = nullptr;

    /**
     * Record/replay tap (see ServerTap), or nullptr for the plain
     * server. Not part of the behavioural configuration: a tapped run
     * is byte-identical to an untapped one.
     */
    ServerTap *tap = nullptr;

    /**
     * Substitute fault plan (a replayer's journal-backed plan), used
     * instead of the one the server would build from `faults`. The
     * server does not own it. nullptr = build from `faults` normally.
     */
    const FaultPlan *faultPlanOverride = nullptr;

    /**
     * Adaptive adversary campaign (src/attack/campaign.hh), or
     * nullptr for an unattacked server. The engine rewrites freshly
     * drawn requests into probes *before* the tap journals them (a
     * recorded campaign run replays bit-exactly with no engine
     * attached — pass nullptr when replaying) and receives probe
     * outcomes from the poll loop. Not owned.
     */
    attack::CampaignEngine *campaign = nullptr;
    /** Shard id this server reports on the campaign's outcome
     *  channel (the fleet sets it; 0 for a lone server). stepRound()
     *  commits the campaign's rounds; serveRound() never does — the
     *  fleet commits once per fleet round, in shard-index order, the
     *  invariance root under permuteShardStep. */
    uint32_t campaignShard = 0;
};

/**
 * The request-draw seam, shared by the lone server and the fleet's
 * ingest. A tap may supply request @p id (a replayer answers from its
 * journal); otherwise it is drawn from @p stream, @p campaign (when
 * non-null) may rewrite it into a probe aimed at @p shard, and only
 * then is it offered to the tap — so a recording carries the probes
 * and replays bit-exactly with no engine attached.
 */
Request drawRequest(uint64_t id, const RequestStream &stream,
                    ServerTap *tap, attack::CampaignEngine *campaign,
                    uint32_t shard, uint64_t session, uint64_t round);

/** Latency distribution in scheduler rounds. */
struct LatencySummary
{
    double meanRounds = 0;
    uint64_t p50Rounds = 0;
    uint64_t p95Rounds = 0;
    uint64_t maxRounds = 0;
};

/** Everything a server run produces. */
struct ServerReport
{
    uint64_t requestsServed = 0;
    uint64_t requestsAbandoned = 0; ///< all workers retired
    std::array<uint64_t, kNumRequestKinds> servedByKind{};
    uint64_t rounds = 0;
    uint64_t totalGuestInsts = 0;
    std::array<uint64_t, kNumIsas> guestInstsPerIsa{};

    uint32_t migrations = 0;        ///< successful cross-ISA switches
    uint32_t migrationsRouted = 0;  ///< scheduler requeues onto other ISA
    uint32_t migrationsDenied = 0;
    uint64_t securityEvents = 0;
    uint32_t crashes = 0;
    uint32_t respawns = 0;
    uint32_t retiredWorkers = 0;
    uint32_t programsCompleted = 0;
    uint32_t checksumMismatches = 0;
    uint32_t probesStaged = 0;

    /** Fault-injection & supervision outcome (all zero when the
     *  fault plan is disabled). @{ */
    std::array<uint64_t, kNumFaultKinds> faultsInjected{};
    uint64_t faultsInjectedTotal = 0;
    uint64_t wedgedQuanta = 0;
    uint32_t watchdogKills = 0;
    uint32_t transformAborts = 0;
    uint32_t migrationsSuppressed = 0;
    uint32_t emergencyRelocations = 0;
    uint32_t coreOutages = 0;
    uint32_t coreRecoveries = 0;
    uint64_t offlineCoreQuanta = 0;
    uint32_t degradedEntries = 0;
    uint32_t degradedExits = 0;
    uint64_t degradedRounds = 0;
    uint32_t reroutes = 0;
    uint32_t rerouteRespawns = 0;
    uint32_t quarantines = 0;
    uint32_t recoveries = 0;
    double meanRoundsToRecover = 0;
    /** @} */

    LatencySummary latency;
    /** Modeled wall time: rounds * quantum / aggregate CMP rate. */
    double modeledSeconds = 0;
    double requestsPerModeledSecond = 0;

    /**
     * Per-phase runtime profile summed over every worker (translate /
     * regalloc / relocation / migration-transform; modeled costs).
     */
    telemetry::PhaseBreakdown phases;

    /**
     * FNV-1a fold of every per-request record and every worker's
     * stats signature. Two runs of the same configuration must agree
     * byte-for-byte; comparing signatures is the cheap way to check.
     */
    uint64_t signature = 0;
};

/**
 * The server. Owns the worker pool and the scheduler; the fat binary
 * (shared, immutable) is owned by the caller.
 */
class ProtectedServer
{
  public:
    ProtectedServer(const FatBinary &bin, const ServerConfig &cfg);

    /**
     * Same, with the reference output checksum already known (only
     * read when cfg.verifyOutput). It depends on the binary alone, so
     * a fleet computes it once for all of its shards.
     */
    ProtectedServer(const FatBinary &bin, const ServerConfig &cfg,
                    uint64_t expected_checksum);

    /**
     * Output checksum of one clean run of @p bin on the reference
     * interpreter — what every worker's program run must reproduce.
     */
    static uint64_t referenceChecksum(const FatBinary &bin);

    /**
     * Serve the whole request stream to completion (or until every
     * worker is retired) and return the report. Runs the per-round
     * quanta on @p pool (global pool when null). Exactly equivalent
     * to beginRun(); while (stepRound(pool)); finishRun().
     */
    ServerReport run(ThreadPool *pool = nullptr);

    /**
     * Stepwise serve-loop engine — the same loop run() executes, but
     * advanced one scheduler round at a time so a replayer (or the
     * introspection server) can pause between rounds, checkpoint, or
     * single-step. @{
     */
    /** Initialize the serve loop. Call once before stepping. */
    void beginRun();
    /**
     * Advance the lone server one round: fill idle workers from its
     * own stream (behind any retries), serveRound(), put the round's
     * retries back at the intake head, commit the campaign round and
     * end the round on the tap. Returns false when the run is over
     * (all requests served, stream abandoned, or the round cap hit) —
     * finishRun() then produces the report.
     */
    bool stepRound(ThreadPool *pool = nullptr);
    /** Aggregate and return the report of the stepped run. */
    ServerReport finishRun();
    /** @} */

    /** Rounds completed so far in a stepped run. */
    uint64_t roundNumber() const { return _serve.roundNo; }

    /**
     * The serve round under stepRound(), which the fleet drives
     * directly for each of its shards. @{
     */
    /**
     * Queue @p r at the intake tail for the next serveRound().
     * Submitting more than admissionCapacity() requests between
     * rounds leaves the excess queued; the fleet never does.
     */
    void submit(const Request &r);
    /**
     * One round: assign intake to idle workers in pid order, run one
     * scheduler round, poll outcomes in pid order into lastRound().
     * Draws nothing, commits nothing and calls no tap. Once every
     * worker is retired the round is a no-op.
     */
    void serveRound(ThreadPool *pool = nullptr);

    /** What the last serveRound() handed back, pid order. */
    struct RoundOutcome
    {
        std::vector<Request> completed;
        /** Requests of workers retired mid-service, retries already
         *  incremented; the owner re-routes them. */
        std::vector<Request> retried;
    };
    const RoundOutcome &lastRound() const { return _round; }

    /** Workers that would accept a request next round: not retired,
     *  no request in flight, process Blocked awaiting service. */
    unsigned admissionCapacity() const;
    /** Workers not permanently retired. */
    unsigned liveWorkers() const;
    /** @} */

    /**
     * FNV-1a fold of the serve-loop state that must agree between a
     * recording and its replay at the end of a round: round number,
     * requests done, next stream id, and every worker's stats
     * signature. Cheap relative to a round, but only computed when a
     * tap is attached.
     */
    uint64_t roundSyncSignature() const;

    /**
     * Checkpoint the complete server mid-run (between rounds): the
     * serve-loop state (in-flight requests, intake, latency samples,
     * report signature accumulator), the scheduler (queues, outage
     * and infirmary state), and every worker process. Restore into a
     * server constructed from the identical (FatBinary, ServerConfig)
     * after beginRun(); the restored server continues byte-
     * identically. @{
     */
    void saveCheckpoint(ByteWriter &w) const;
    void loadCheckpoint(ByteReader &r);
    /** @} */

    const std::vector<std::unique_ptr<GuestProcess>> &workers() const
    {
        return _workers;
    }
    /** Mutable worker access (replay coin-feed wiring). */
    GuestProcess &worker(size_t i) { return *_workers[i]; }
    const CmpModel &cmp() const { return _cmp; }
    const CmpScheduler &scheduler() const { return _sched; }
    const ServerConfig &config() const { return _cfg; }
    /** The active fault plan (nullptr when faults are disabled). */
    const FaultPlan *faultPlan() const
    {
        return _cfg.faultPlanOverride != nullptr
            ? _cfg.faultPlanOverride
            : _plan.get();
    }

  private:
    /** Per-worker in-flight request bookkeeping. */
    struct InFlight
    {
        Request req;
        uint64_t startRound = 0;
        bool active = false;
        /** Staging-time facts for the campaign's compromise oracle
         *  and crash detection (captured at assignment). @{ */
        IsaKind assignIsa = IsaKind::Risc;
        uint32_t assignGeneration = 0;
        uint32_t assignRespawns = 0;
        bool crashSeen = false;
        /** @} */
    };

    /**
     * Everything the serve loop kept on run()'s stack before the
     * stepwise split — now a member so the loop can pause between
     * rounds and be checkpointed.
     */
    struct ServeState
    {
        ServerReport report; ///< served/abandoned counters accrue here
        std::vector<InFlight> inflight;
        std::vector<bool> retired;
        /** Retries at the head, then submitted requests. */
        std::deque<Request> intake;
        uint64_t nextId = 0;
        std::vector<uint64_t> latencies;
        uint64_t sig = kFnvOffsetBasis;
        uint64_t roundNo = 0;
        uint64_t done = 0;
        bool wasDegraded = false;
        uint64_t degradedStart = 0;
        bool finished = false; ///< loop over; stepRound() refuses
        bool begun = false;
        /** Trace plumbing, fixed at beginRun(). @{ */
        bool traced = false;
        double usPerRound = 0;
        /** @} */
    };

    const FatBinary &_bin;
    ServerConfig _cfg;
    CmpModel _cmp;
    CmpScheduler _sched;
    RequestStream _stream;
    std::unique_ptr<FaultPlan> _plan;
    std::vector<std::unique_ptr<GuestProcess>> _workers;
    ServeState _serve;
    RoundOutcome _round;
};

} // namespace hipstr

#endif // HIPSTR_SERVER_PROTECTED_SERVER_HH
