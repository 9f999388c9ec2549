/**
 * @file
 * Sharded multi-CMP fleet: K ProtectedServer shards behind a
 * deterministic load balancer — the scale-out tier that turns the
 * paper's single-CMP Section 5.3 deployment into a serving fleet.
 *
 * Architecture (DESIGN.md has the full contract):
 *
 *  - Session pinning by consistent hashing: every request belongs to
 *    a session (a pure hash of its id), and sessions map to shards
 *    through a vnode ring derived only from (fleet seed, shard id) —
 *    the same session lands on the same shard for the whole run.
 *  - Bounded admission queues with backpressure: each shard fronts a
 *    queue of at most queueCap requests; a full queue stalls new
 *    arrivals in the fleet's routing buffer rather than dropping
 *    them.
 *  - SLO-aware shedding: with sloRounds set, a request older than its
 *    deadline is dropped with the typed FleetOutcome::ShedDeadline —
 *    never silently.
 *  - Batched ingestion: at most batchSize new requests enter the
 *    fleet per scheduling round, modeling an arrival rate instead of
 *    an infinitely fast client.
 *  - Cross-shard work stealing during respawn storms: when a shard is
 *    stormy (crashed workers convalescing in the supervisor's
 *    infirmary, every worker retired, or degraded single-ISA mode),
 *    healthy shards with spare capacity drain its queue, oldest
 *    requests first.
 *
 * Determinism: the balancer is sequential and a pure function of the
 * fleet state; shard quanta parallelize internally (HIPSTR_JOBS) but
 * completions are folded in fixed shard-index order, and per-shard
 * seeds derive from (fleet seed, shard id) alone — so the merged
 * FleetReport is byte-identical across thread counts and across
 * shard-execution interleavings (permuteShardStep exercises this).
 */

#ifndef HIPSTR_FLEET_FLEET_HH
#define HIPSTR_FLEET_FLEET_HH

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "server/protected_server.hh"

namespace hipstr
{

/** How the fleet disposed of one request. Every ingested request gets
 *  exactly one of these — nothing is dropped silently. */
enum class FleetOutcome : uint8_t
{
    Served = 0,   ///< completed by a shard worker
    ShedDeadline, ///< dropped after exceeding the SLO deadline
    Abandoned     ///< unservable: no live worker could ever take it
};

constexpr size_t kNumFleetOutcomes = 3;

const char *fleetOutcomeName(FleetOutcome o);

/** The fleet taps through ServerTap; this name stays for callers that
 *  spell it for a fleet (perfbench's round-gap tap). */
using FleetTap = ServerTap;

/** Fleet configuration. */
struct FleetConfig
{
    /** Shard count K: independent ProtectedServer instances, each on
     *  its own modeled CMP. */
    unsigned shards = 4;

    /**
     * Per-shard server template. The fleet overrides the shard-mode
     * plumbing (shardMode, callbacks, tap) and derives per-shard
     * seeds; everything else — workers, CMP shape, mix-independent
     * knobs, supervisor policy, fault rates — applies to every shard
     * identically. The template's own requestCount/seed/mix are not
     * used for request generation (the fleet stream below is).
     */
    ServerConfig server;

    /** Total requests offered to the fleet. */
    uint64_t requestCount = 1000;
    /** Fleet seed: request stream, session hashing, vnode ring, and
     *  the root of every per-shard seed. */
    uint64_t seed = 0xf1ee7;
    /** Traffic composition/costs of the fleet stream. @{ */
    RequestMix mix;
    RequestCosts costs;
    /** @} */

    /** Distinct session ids requests hash into. */
    uint64_t sessions = 64;
    /** Ring points per shard; more vnodes = smoother pinning. */
    unsigned vnodesPerShard = 16;
    /** Per-shard admission-queue bound (backpressure beyond it). */
    size_t queueCap = 64;
    /** Rounds a request may wait unassigned before it is shed;
     *  0 disables deadline shedding. */
    uint64_t sloRounds = 0;
    /** New requests ingested per fleet round. */
    unsigned batchSize = 32;
    /** Cross-shard stealing during respawn storms. */
    bool workStealing = true;

    /** Retain one FleetOutcomeRec per request in the report. */
    bool keepOutcomes = false;
    /**
     * Rotate the order shards execute their round by the round number
     * (shard state is disjoint, so the report must not change) —
     * the interleaving-independence knob the tests flip.
     */
    bool permuteShardStep = false;

    /** Observers (never part of behaviour). @{ */
    telemetry::TraceBuffer *trace = nullptr;
    telemetry::MetricRegistry *metrics = nullptr;
    /** Metric-name prefix, e.g. "fleet" → "fleet.availability". */
    std::string metricsPrefix = "fleet";
    /** Record/replay seam (ServerTap): the balancer's draws are the
     *  fleet's only stream nondeterminism, and each fleet round ends
     *  with roundSyncSignature(). */
    ServerTap *tap = nullptr;
    /** @} */

    /**
     * Substitute per-shard fault plans (record/replay decorators),
     * parallel to shard index; empty = every shard builds its own
     * from the derived config. Entries may be null.
     */
    std::vector<const FaultPlan *> shardPlanOverrides;

    /**
     * Adaptive adversary campaign (src/attack/campaign.hh), or
     * nullptr for an unattacked fleet. The engine rewrites the
     * fleet's fresh draws at ingest (before the tap journals them —
     * replays are bit-exact with no engine; pass nullptr when
     * replaying), every shard reports probe outcomes on its channel,
     * and the fleet commits the round in shard-index order after all
     * shards stepped — so campaign decisions are invariant under
     * permuteShardStep. Not owned, and not part of fleetConfigHash.
     */
    attack::CampaignEngine *campaign = nullptr;
};

/**
 * The k-th shard's derived ServerConfig: shard mode on, per-shard
 * seeds folded from (fleet seed, k), observers rewired. The single
 * source of truth shared by the fleet constructor and the replay
 * layer (which must decorate the exact fault config shard k runs).
 * The completion/retry callbacks are not set here — the fleet wires
 * its own.
 */
ServerConfig shardServerConfig(const FleetConfig &cfg, unsigned k);

/** One request's fate (report.outcomes, with keepOutcomes). */
struct FleetOutcomeRec
{
    uint64_t id = 0;
    uint64_t session = 0;
    uint32_t shard = 0;     ///< serving (or last-holding) shard
    uint32_t homeShard = 0; ///< pinned shard from the ring
    RequestKind kind = RequestKind::Static;
    FleetOutcome outcome = FleetOutcome::Served;
    /** Fleet rounds from ingestion to completion (Served) or to the
     *  drop decision (ShedDeadline/Abandoned). */
    uint64_t latencyRounds = 0;
    uint32_t retries = 0;
};

/** Everything a fleet run produces. */
struct FleetReport
{
    uint64_t requestsOffered = 0;
    uint64_t requestsServed = 0;
    uint64_t requestsShed = 0;
    uint64_t requestsAbandoned = 0;
    uint64_t requestsRetried = 0; ///< re-routes after worker loss
    std::array<uint64_t, kNumRequestKinds> servedByKind{};
    uint64_t rounds = 0;
    uint64_t steals = 0;
    /** Request-rounds spent stalled in the routing buffer because the
     *  pinned shard's admission queue was full. */
    uint64_t backpressureStalls = 0;
    /** served / offered. */
    double availability = 0;

    /** Fleet-level latency (ingestion → completion, in fleet rounds)
     *  from the cross-shard HistogramMetric merge. @{ */
    double meanLatencyRounds = 0;
    uint64_t p50Rounds = 0;
    uint64_t p99Rounds = 0;
    uint64_t p999Rounds = 0;
    uint64_t maxRounds = 0;
    /** @} */

    /** Aggregates over every shard's ServerReport. @{ */
    uint64_t totalGuestInsts = 0;
    uint64_t securityEvents = 0;
    uint32_t migrations = 0;
    uint32_t crashes = 0;
    uint32_t respawns = 0;
    uint32_t retiredWorkers = 0;
    uint32_t quarantines = 0;
    uint64_t faultsInjectedTotal = 0;
    /** @} */

    /** Per-shard reports, shard-index order. */
    std::vector<ServerReport> shardReports;

    /**
     * Order-sensitive FNV fold of every disposal event and every
     * shard report signature — the byte-identity witness across
     * HIPSTR_JOBS and shard-step interleavings.
     */
    uint64_t signature = 0;

    /**
     * Commutative fold over (id, session, kind, outcome) of every
     * disposal — completion *order* and shard placement excluded, so
     * for a run where every request is served this is identical for
     * K=1 and K=4 (the pinned-session outcome-set witness).
     */
    uint64_t outcomeSetSignature = 0;

    /** One record per request (only with keepOutcomes). */
    std::vector<FleetOutcomeRec> outcomes;
};

/**
 * The fleet. Owns the K shards; the fat binary (shared, immutable)
 * is owned by the caller, as with ProtectedServer.
 */
class ProtectedFleet
{
  public:
    ProtectedFleet(const FatBinary &bin, const FleetConfig &cfg);
    ~ProtectedFleet();

    /** Drive the whole fleet to completion and return the merged
     *  report. Shard quanta run on @p pool (global when null). */
    FleetReport run(ThreadPool *pool = nullptr);

    /** Fleet rounds completed so far. */
    uint64_t roundNumber() const { return _roundNo; }

    /** FNV fold of the balancer + every shard's sync signature —
     *  the per-round divergence check for record/replay. */
    uint64_t roundSyncSignature() const;

    /** The session a request id hashes to (pure). */
    uint64_t sessionOf(uint64_t id) const;
    /** The shard a session pins to through the vnode ring. */
    uint32_t shardOf(uint64_t session) const;

    unsigned shards() const { return _cfg.shards; }
    /** Shard access (replay coin-feed wiring, tests). */
    ProtectedServer &shard(unsigned k) { return *_shards[k]; }
    const ProtectedServer &shard(unsigned k) const
    {
        return *_shards[k];
    }
    const FleetConfig &config() const { return _cfg; }

  private:
    /** A request waiting in the routing buffer or a shard queue. */
    struct Pending
    {
        Request req;
        uint64_t session = 0;
        uint32_t home = 0;    ///< pinned shard
        uint64_t arrival = 0; ///< fleet round it was ingested
    };

    /** One point on the consistent-hash ring. */
    struct RingPoint
    {
        uint64_t point;
        uint32_t shard;
    };

    void ingestRound();
    void shedRound();
    void routeRound();
    void stealRound(const std::vector<bool> &stormy);
    bool shardStormy(unsigned k) const;
    void dispose(const Pending &p, uint32_t shard, FleetOutcome o,
                 uint64_t latency);
    void finishShardFold(unsigned k);

    const FatBinary &_bin;
    FleetConfig _cfg;
    RequestStream _stream;
    std::vector<std::unique_ptr<ProtectedServer>> _shards;
    std::vector<RingPoint> _ring;

    /** Balancer state. @{ */
    std::deque<Pending> _arrival; ///< routed under backpressure
    std::vector<std::deque<Pending>> _queues; ///< bounded, per shard
    std::map<uint64_t, Pending> _inflight;    ///< dispatched, by id
    std::vector<uint8_t> _disposed; ///< one-outcome guard, by id
    uint64_t _nextId = 0;
    uint64_t _roundNo = 0;
    bool _ran = false;
    /** @} */

    /** Per-round shard callback capture, folded in index order. @{ */
    std::vector<std::vector<std::pair<Request, uint64_t>>> _completed;
    std::vector<std::vector<Request>> _retried;
    /** @} */

    /** Accounting. @{ */
    FleetReport _report;
    uint64_t _sig;
    uint64_t _outcomeSetSig = 0;
    std::vector<std::unique_ptr<telemetry::HistogramMetric>> _lat;
    double _usPerRound = 0;
    bool _traced = false;
    /** @} */
};

} // namespace hipstr

#endif // HIPSTR_FLEET_FLEET_HH
