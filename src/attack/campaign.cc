#include "campaign.hh"

#include <algorithm>
#include <cstring>

#include "support/fnv.hh"
#include "support/logging.hh"

namespace hipstr
{
namespace attack
{

namespace
{

/** Stateless SplitMix64 of a value (the library version advances a
 *  stream; campaign coins must be pure functions of their inputs). */
uint64_t
mix64(uint64_t v)
{
    return splitMix64(v);
}

} // namespace

const char *
campaignStrategyName(CampaignStrategy s)
{
    switch (s) {
      case CampaignStrategy::OneShot: return "oneshot";
      case CampaignStrategy::OutcomeBrute: return "brute";
      case CampaignStrategy::Isomeron: return "isomeron";
      case CampaignStrategy::RespawnTiming: return "respawn";
      case CampaignStrategy::CrossGuest: return "crossguest";
    }
    return "?";
}

bool
campaignStrategyFromName(const char *name, CampaignStrategy &out)
{
    for (size_t i = 0; i < kNumCampaignStrategies; ++i) {
        CampaignStrategy s = static_cast<CampaignStrategy>(i);
        if (std::strcmp(name, campaignStrategyName(s)) == 0) {
            out = s;
            return true;
        }
    }
    return false;
}

CampaignConfig
campaignConfigFor(CampaignStrategy s, uint64_t attackerSeed,
                  uint64_t defenseSeed, size_t randSpaceBytes,
                  double diversificationProbability, uint32_t shards)
{
    CampaignConfig cfg;
    cfg.strategy = s;
    cfg.seed = attackerSeed;
    cfg.defenseSeed = defenseSeed;
    // One guessable position per KiB of the randomization window:
    // enough spread for the sweep dynamics to matter at bench scale
    // while keeping entropy monotone in the defender's knob.
    cfg.secretSpace = static_cast<uint32_t>(
        std::max<size_t>(4, randSpaceBytes / 1024));
    cfg.migrationProb = diversificationProbability;
    cfg.shards = shards == 0 ? 1 : shards;
    return cfg;
}

CampaignEngine::CampaignEngine(const CampaignConfig &cfg)
    : _cfg(cfg), _belief(cfg.secretSpace, cfg.migrationProb),
      _rewriteRng(mix64(cfg.seed ^ 0xca3badd5eed5ull))
{
    hipstr_assert(cfg.shards > 0);
    hipstr_assert(cfg.secretSpace > 0);
    _buffered.resize(cfg.shards);
    _report.strategy = cfg.strategy;
}

uint32_t
CampaignEngine::secretFor(uint32_t shard, uint32_t pid,
                          uint32_t gen) const
{
    uint64_t s = _cfg.defenseSeed ^
        (0x9e3779b97f4a7c15ull * (uint64_t(shard) + 1)) ^
        (0xd1b54a32d192ed03ull * (uint64_t(pid) + 1)) ^
        (0x2545f4914f6cdd1dull * (uint64_t(gen) + 1));
    return static_cast<uint32_t>(mix64(s) % _cfg.secretSpace);
}

bool
CampaignEngine::probeCoin(uint64_t id, uint64_t salt,
                          double prob) const
{
    if (prob >= 1.0)
        return true;
    if (prob <= 0.0)
        return false;
    uint64_t h = mix64(_cfg.seed ^ (salt * (id + 1)));
    return double(h >> 11) * 0x1.0p-53 < prob;
}

uint32_t
CampaignEngine::focusWorker(uint32_t shard) const
{
    // The worker whose exclusion set is largest is closest to
    // exhaustion — concentrate there.
    return _belief.mostExcludedWorker(shard);
}

void
CampaignEngine::rewrite(Request &r, uint32_t homeShard,
                        uint64_t session, uint64_t round)
{
    (void)session;
    if (_report.probesSent >= _cfg.probeBudget)
        return;
    if (homeShard >= _cfg.shards)
        return;

    // Multi-tenant concentration: aim the hostile tenancy share at
    // the shard observed to recover worst, keeping a scouting trickle
    // elsewhere so the focus can move as the fleet heals.
    if (_cfg.strategy == CampaignStrategy::CrossGuest &&
        _cfg.shards > 1) {
        uint32_t focus = _belief.weakestShard(_cfg.shards);
        if (homeShard != focus && !_rewriteRng.chance(0.10))
            return;
    }
    if (_cfg.probeFrac < 1.0 && !_rewriteRng.chance(_cfg.probeFrac))
        return;

    ProbeMeta m;
    m.sentRound = round;
    m.shard = homeShard;

    // Deliberate crash probes: the respawn-timing strategy maps the
    // infirmary window with them (and the cross-guest one keeps its
    // focus shard stormy), except while a burst is racing a fresh
    // randomization.
    bool crash_probe = false;
    if (_burstLeft == 0) {
        if (_cfg.strategy == CampaignStrategy::RespawnTiming)
            crash_probe = _rewriteRng.chance(_cfg.crashProbeFrac);
        else if (_cfg.strategy == CampaignStrategy::CrossGuest)
            crash_probe = _rewriteRng.chance(_cfg.crashProbeFrac / 2);
    } else {
        --_burstLeft;
    }

    if (crash_probe) {
        r.kind = RequestKind::Malformed;
        m.crashProbe = true;
        ++_report.crashProbes;
    } else {
        r.kind = RequestKind::Attack;
        uint32_t pid = focusWorker(homeShard);
        switch (_cfg.strategy) {
          case CampaignStrategy::OneShot:
            // With replacement, outcome-blind: the equal-budget
            // baseline the adaptive strategies are measured against.
            m.guess = static_cast<uint32_t>(
                mix64(_cfg.seed ^
                      (0x94d049bb133111ebull * (r.id + 1))) %
                _cfg.secretSpace);
            m.guessIsa = (mix64(_cfg.seed ^
                                (0xbf58476d1ce4e5b9ull *
                                 (r.id + 1))) &
                          1) != 0
                ? IsaKind::Risc
                : IsaKind::Cisc;
            break;
          case CampaignStrategy::Isomeron: {
            // Two-path pairs: a value probed under both ISA
            // assumptions, so a placement flip cannot hide a correct
            // guess. Pairing costs double, so it is hedged only while
            // the placement posterior is genuinely uncertain; once
            // the timing leak has pinned the worker down, a single
            // probe on the predicted ISA sweeps at full speed.
            if (_pairPending && _pairShard == homeShard) {
                m.guess = _pairGuess;
                m.guessIsa = otherIsa(_pairIsa);
                _pairPending = false;
                break;
            }
            m.guess = _belief.nextGuess(homeShard, pid);
            m.guessIsa = _belief.predictedStagingIsa(homeShard, pid);
            const TargetBelief *tb = _belief.find(homeShard, pid);
            const double pr = tb != nullptr ? tb->pRisc : 0.5;
            if (pr > 0.25 && pr < 0.75) {
                _pairPending = true;
                _pairGuess = m.guess;
                _pairIsa = m.guessIsa;
                _pairShard = homeShard;
                _pairPid = pid;
            }
            break;
          }
          default:
            m.guess = _belief.nextGuess(homeShard, pid);
            m.guessIsa = _belief.predictedStagingIsa(homeShard, pid);
            break;
        }
        ++_report.attackProbes;
    }

    ++_report.probesSent;
    _probes.emplace(r.id, m);

    if (_cfg.trace != nullptr &&
        _cfg.trace->enabled(telemetry::TraceCategory::Attack)) {
        _cfg.trace->record(
            telemetry::traceInstant(telemetry::TraceCategory::Attack,
                                    m.crashProbe ? "crash_probe"
                                                 : "attack_probe",
                                    double(round), 0, homeShard)
                .arg("id", r.id)
                .arg("guess", m.guess));
    }
}

void
CampaignEngine::observe(const ProbeEvent &ev)
{
    hipstr_assert(ev.shard < _buffered.size());
    _buffered[ev.shard].push_back(ev);
}

void
CampaignEngine::commitRound(uint64_t round)
{
    for (auto &shardEvents : _buffered) {
        for (const ProbeEvent &ev : shardEvents)
            processEvent(ev, round);
        shardEvents.clear();
    }
}

void
CampaignEngine::processEvent(const ProbeEvent &ev, uint64_t round)
{
    auto it = _probes.find(ev.id);
    if (it == _probes.end())
        return; // not ours: clean traffic or a pre-campaign request

    fnvFold64(_sig, ev.id);
    fnvFold64(_sig, static_cast<uint64_t>(ev.signal));
    fnvFold64(_sig, ev.shard);
    fnvFold64(_sig, ev.worker);
    fnvFold64(_sig, ev.latencyRounds);

    ProbeMeta m = it->second;
    const bool adaptive = _cfg.strategy != CampaignStrategy::OneShot;

    switch (ev.signal) {
      case ProbeSignal::Crash:
        ++_report.crashesObserved;
        if (adaptive && ev.worker != kNoWorker) {
            _belief.noteCrash(ev.shard, ev.worker, round);
            // The respawn will carry fresh randomization: race it.
            if (_cfg.strategy == CampaignStrategy::RespawnTiming ||
                _cfg.strategy == CampaignStrategy::CrossGuest)
                _burstLeft = _cfg.burstLen;
        }
        // The request is still in flight (the respawned or stealing
        // worker finishes it later) — keep the metadata.
        return;

      case ProbeSignal::Silence:
        ++_report.silences;
        _probes.erase(it);
        return;

      case ProbeSignal::Response:
        ++_report.responses;
        if (adaptive && ev.worker != kNoWorker)
            _belief.noteServiced(ev.shard, ev.worker, round);
        if (!m.crashProbe && ev.payloadDelivered &&
            ev.worker != kNoWorker) {
            // Oracle: did the payload land? Truth only scores the
            // probe; the belief update below sees none of it.
            uint32_t secret =
                secretFor(ev.shard, ev.worker, ev.generationAtAssign);
            if (m.guess == secret && m.guessIsa == ev.isaAtAssign) {
                ++_report.compromises;
                if (_report.firstCompromiseProbe == 0) {
                    _report.firstCompromiseProbe = _report.probesSent;
                    _report.firstCompromiseRound = round;
                }
                fnvFold64(_sig, 0xc0117a9edull);
                if (_cfg.trace != nullptr &&
                    _cfg.trace->enabled(
                        telemetry::TraceCategory::Attack)) {
                    _cfg.trace->record(
                        telemetry::traceInstant(
                            telemetry::TraceCategory::Attack,
                            "compromise", double(round), ev.worker,
                            ev.shard)
                            .arg("id", ev.id)
                            .arg("probes", _report.probesSent));
                }
            } else if (adaptive) {
                _belief.noteProbeResult(
                    ev.shard, ev.worker, m.guess, m.guessIsa,
                    m.sentRound,
                    probeCoin(ev.id, 0xa0b1c2d3e4f50617ull,
                              _cfg.isaLeakProb),
                    ev.isaAtEvent);
            }
        }
        _probes.erase(it);
        return;
    }
}

CampaignReport
CampaignEngine::report() const
{
    CampaignReport r = _report;
    r.belief = _belief.stats();
    uint64_t sig = _sig;
    fnvFold64(sig, _belief.signature());
    r.signature = sig;
    return r;
}

} // namespace attack
} // namespace hipstr
