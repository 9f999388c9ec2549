/**
 * @file
 * Adaptive adversary campaigns: a deterministic, seeded attacker that
 * rides the protected server's own request stream, observes per-probe
 * outcomes (response, connection reset, silence, latency), updates a
 * belief over target ISA placement / relocation generation / respawn
 * timing (src/attack/belief.hh), and schedules its next probe from
 * what it learned — the feedback-driven threat model the one-shot
 * attacks in brute_force.cc/jitrop.cc/tailored.cc deliberately
 * exclude.
 *
 * Wiring (see ServerConfig::campaign / FleetConfig::campaign): the
 * engine is a request-source hook. When the server (or the fleet's
 * ingest) draws a fresh request, the engine may rewrite it into an
 * attack or malformed probe *before* the record/replay tap journals
 * it — so a recorded campaign run replays bit-exactly from the
 * journal alone, with no engine attached. Outcomes flow back on a
 * buffered per-shard channel and are committed once per round in
 * shard-index order, which keeps the engine's decisions invariant
 * under the fleet's permuteShardStep interleaving knob.
 *
 * Determinism contract: every engine decision is a pure function of
 * (CampaignConfig, the sequence of committed observations). Rewrite
 * randomness comes from a seeded xoshiro stream drawn only at rewrite
 * time; observation-path randomness (the timing-leak coin) is a hash
 * of (seed, probe id), never a sequential draw — so the same run is
 * byte-identical across HIPSTR_JOBS and shard interleavings.
 *
 * Compromise oracle: each worker hides a secret drawn from a space
 * sized by the defense's stack entropy, re-drawn per randomization
 * generation: secretFor(shard, pid, generation). An attack probe
 * compromises its worker iff its guess matches the secret AND its
 * payload assumed the ISA the worker was actually staged on — the
 * Isomeron-style execution-path coin the defense's migration
 * probability keeps flipping. The oracle reads defender truth only to
 * *score* probes; the belief layer never sees it.
 */

#ifndef HIPSTR_ATTACK_CAMPAIGN_HH
#define HIPSTR_ATTACK_CAMPAIGN_HH

#include <cstdint>
#include <map>
#include <vector>

#include "attack/belief.hh"
#include "server/request_stream.hh"
#include "support/fnv.hh"
#include "support/random.hh"
#include "telemetry/trace.hh"

namespace hipstr
{
namespace attack
{

/** Probe-scheduling policy. */
enum class CampaignStrategy : uint8_t
{
    /** Baseline: guesses with replacement from the full space,
     *  ignores every outcome — the PR 2 one-shot attack mix expressed
     *  as a campaign, for equal-budget comparisons. */
    OneShot = 0,
    /** Outcome-conditioned brute force: sweeps the space without
     *  replacement, drops disproven guesses, resets on observed
     *  re-randomization. */
    OutcomeBrute,
    /** Isomeron-aware two-path probing: every guess is sent twice,
     *  once per ISA assumption, so a migration mid-campaign cannot
     *  hide a correct value. */
    Isomeron,
    /** Respawn-timing inference: deliberate crash probes map the
     *  infirmary backoff/quarantine window, then attack-probe bursts
     *  race the fresh randomization while the pool is short-handed. */
    RespawnTiming,
    /** Multi-tenant cross-guest probing: concentrates the hostile
     *  share of the stream on the weakest shard the consistent-hash
     *  ring will route it to, stressing affinity routing and work
     *  stealing. */
    CrossGuest
};

constexpr size_t kNumCampaignStrategies = 5;

const char *campaignStrategyName(CampaignStrategy s);
/** Parse a CLI name ("oneshot", "brute", "isomeron", "respawn",
 *  "crossguest"); returns false on unknown names. */
bool campaignStrategyFromName(const char *name, CampaignStrategy &out);

/** Worker id for events with no serving worker (fleet sheds). */
constexpr uint32_t kNoWorker = 0xffffffffu;

/** What one probe outcome looked like from outside. */
enum class ProbeSignal : uint8_t
{
    Response = 0, ///< service completed; latency observable
    Crash,        ///< connection reset: the worker crashed serving it
    Silence       ///< no answer: shed or abandoned by the fleet
};

/**
 * One observation on the outcome channel. The attacker-visible part
 * is (id, signal, shard, worker, latency, isaAtEvent-via-leak); the
 * *AtAssign fields are oracle truth used only to score the probe.
 */
struct ProbeEvent
{
    uint64_t id = 0;
    ProbeSignal signal = ProbeSignal::Response;
    uint32_t shard = 0;
    uint32_t worker = kNoWorker;
    uint64_t latencyRounds = 0;
    /** Payload ran (first delivery; a retried request burned it). */
    bool payloadDelivered = false;
    /** Completion-time ISA — the timing side channel's source. */
    IsaKind isaAtEvent = IsaKind::Risc;
    /** Oracle truth: ISA and randomization generation when the probe
     *  was staged on the worker. @{ */
    IsaKind isaAtAssign = IsaKind::Risc;
    uint32_t generationAtAssign = 0;
    /** @} */
};

/** Campaign knobs. */
struct CampaignConfig
{
    CampaignStrategy strategy = CampaignStrategy::OutcomeBrute;
    /** Attacker seed: rewrite decisions + per-probe leak coins. */
    uint64_t seed = 0xa77ac4;
    /** Probes the campaign may convert from the stream; after the
     *  budget is spent the remaining traffic passes clean. */
    uint64_t probeBudget = UINT64_MAX;
    /** Fraction of the stream the attacker controls (its own
     *  tenancy share). 1.0 = every drawn request is convertible. */
    double probeFrac = 1.0;
    /** Deliberate crash-probe share for the respawn-timing and
     *  cross-guest strategies. */
    double crashProbeFrac = 0.15;
    /** Attack-probe burst length fired after each observed crash
     *  (racing the re-randomize window). */
    uint32_t burstLen = 12;
    /** Timing-side-channel fidelity: probability a response leaks its
     *  completion ISA. */
    double isaLeakProb = 0.7;

    /** Defense-derived model (see campaignConfigFor). @{ */
    /** Root of the per-(shard, pid, generation) secret. */
    uint64_t defenseSeed = 0x5eed;
    /** Secret-space size — stack entropy as guessable positions. */
    uint32_t secretSpace = 8;
    /** Published diversification probability (Kerckhoffs). */
    double migrationProb = 0.5;
    /** @} */

    /** Shard count of the hosting server/fleet (event buffers). */
    uint32_t shards = 1;

    /** Optional trace sink (TraceCategory::Attack): probes sent,
     *  crashes observed, compromises landed. Timestamps are campaign
     *  rounds, so exported traces line up with the host's round
     *  timeline. */
    telemetry::TraceBuffer *trace = nullptr;
};

/** Everything a campaign run produces. */
struct CampaignReport
{
    CampaignStrategy strategy = CampaignStrategy::OneShot;
    uint64_t probesSent = 0;
    uint64_t attackProbes = 0;
    uint64_t crashProbes = 0;
    uint64_t responses = 0;
    uint64_t crashesObserved = 0;
    uint64_t silences = 0;
    uint64_t compromises = 0;
    /** Probes sent when the first compromise landed (0 = none —
     *  censored at the budget). @{ */
    uint64_t firstCompromiseProbe = 0;
    uint64_t firstCompromiseRound = 0;
    /** @} */
    BeliefStats belief;
    /** FNV-1a fold of every committed observation — byte-identity
     *  witness across HIPSTR_JOBS and shard interleavings. */
    uint64_t signature = 0;
};

/**
 * Derive the defense-coupled model fields from the defender's public
 * knobs: the secret space scales with the stack-entropy window
 * (PsrConfig::randSpaceBytes), the migration model mirrors the
 * published diversification probability, and the oracle roots at the
 * defender's seed.
 */
CampaignConfig campaignConfigFor(CampaignStrategy s,
                                 uint64_t attackerSeed,
                                 uint64_t defenseSeed,
                                 size_t randSpaceBytes,
                                 double diversificationProbability,
                                 uint32_t shards);

/**
 * The engine. Sequential by construction: rewrite() runs inside the
 * sequential draw seam (drawRequest()), observe() inside the
 * sequential poll/dispose sections, commitRound() once per round from
 * the owner (a lone server's stepRound(), or the fleet after all of
 * its shards served the round).
 */
class CampaignEngine
{
  public:
    explicit CampaignEngine(const CampaignConfig &cfg);

    /**
     * Request-source hook: possibly turn the freshly drawn @p r into
     * a probe (kind, and the engine's private guess metadata keyed by
     * r.id). @p homeShard is the shard the request will be pinned to
     * (0 for a lone server), @p session its fleet session (0 for a
     * lone server).
     */
    void rewrite(Request &r, uint32_t homeShard, uint64_t session,
                 uint64_t round);

    /** Outcome channel: buffered per shard, processed at
     *  commitRound() in shard-index order. */
    void observe(const ProbeEvent &ev);

    /** Process every buffered observation. Call exactly once per
     *  server/fleet round, after all shards stepped. */
    void commitRound(uint64_t round);

    /** The modeled secret of (shard, pid) at randomization
     *  generation @p gen — oracle truth, exposed for tests. */
    uint32_t secretFor(uint32_t shard, uint32_t pid,
                       uint32_t gen) const;

    uint64_t probesSent() const { return _report.probesSent; }
    const CampaignConfig &config() const { return _cfg; }
    const BeliefState &belief() const { return _belief; }

    /** Finalized report (belief stats + signature folded in). */
    CampaignReport report() const;

  private:
    struct ProbeMeta
    {
        uint32_t guess = 0;
        IsaKind guessIsa = IsaKind::Risc;
        bool crashProbe = false;
        uint64_t sentRound = 0;
        uint32_t shard = 0;
    };

    void processEvent(const ProbeEvent &ev, uint64_t round);
    /** The worker on @p shard the attacker aims its next guess at:
     *  most exclusions learned (closest to exhaustion), ties to the
     *  lowest pid. */
    uint32_t focusWorker(uint32_t shard) const;
    /** Per-probe deterministic coin (hash of seed and id). */
    bool probeCoin(uint64_t id, uint64_t salt, double prob) const;

    CampaignConfig _cfg;
    BeliefState _belief;
    Rng _rewriteRng;
    std::map<uint64_t, ProbeMeta> _probes; ///< in-flight, by id
    std::vector<std::vector<ProbeEvent>> _buffered; ///< per shard
    CampaignReport _report;
    uint64_t _sig = kFnvOffsetBasis;
    /** Isomeron pair state: the second path of a pending guess. @{ */
    bool _pairPending = false;
    uint32_t _pairGuess = 0;
    IsaKind _pairIsa = IsaKind::Risc;
    uint32_t _pairShard = 0;
    uint32_t _pairPid = 0;
    /** @} */
    /** Attack-probe burst countdown (respawn-timing race). */
    uint32_t _burstLeft = 0;
};

} // namespace attack
} // namespace hipstr

#endif // HIPSTR_ATTACK_CAMPAIGN_HH
