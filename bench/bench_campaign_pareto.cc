/**
 * @file
 * Security/throughput Pareto sweep under adaptive adversary campaigns
 * (src/attack/campaign.hh): the defender's three public knobs —
 * migration probability, RAT size, and stack-entropy window — swept
 * against a feedback-driven attacker owning a fixed tenancy share of
 * a live two-shard fleet. Each sweep point reports the attacker's
 * median time-to-compromise (fleet rounds to the first landed
 * payload, censored at run length when the campaign never lands one)
 * next to the same fleet's p99 latency and availability, and the
 * non-dominated subset is published as the Pareto frontier.
 *
 * Three claims measured:
 *
 *  - adaptive campaigns beat outcome-blind ones: at an equal probe
 *    budget the outcome-conditioned sweep's median time-to-compromise
 *    is strictly below the one-shot baseline's (the headline
 *    adaptive-adversary claim; hard failure when violated);
 *  - the defense knobs trade security for throughput along a
 *    monotone frontier: sorted by rising time-to-compromise, frontier
 *    p99 never improves (scripts/check_bench_json.py re-verifies the
 *    dominance relation from the JSON alone);
 *  - a journaled hostile run replays bit-exactly with no campaign
 *    engine attached (pareto.replay_match).
 *
 * Everything in BENCH_campaign_pareto.json is modeled/counted and
 * byte-identical for every HIPSTR_JOBS value; wall-clock lands in the
 * _host file.
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "attack/campaign.hh"
#include "bench_util.hh"
#include "fleet/fleet.hh"
#include "replay/record_replay.hh"
#include "support/logging.hh"
#include "support/stats.hh"

using namespace hipstr;
using namespace hipstr::bench;

namespace
{

constexpr uint64_t kAttackerSeeds[3] = { 0xa1, 0xb2, 0xc3 };

FleetConfig
hostileFleetConfig()
{
    FleetConfig cfg;
    cfg.shards = 2;
    cfg.requestCount = benchOptions().smoke ? 500 : 4'000;
    cfg.seed = 0x9a4e70;
    cfg.sessions = 32;
    cfg.batchSize = 16;
    cfg.workStealing = true;

    ServerConfig &s = cfg.server;
    s.workers = 4;
    s.watchdogQuanta = 3;
    s.sched.respawnLimit = 0;
    s.sched.supervisor.backoffBaseRounds = 2;
    s.sched.supervisor.backoffCapRounds = 8;
    s.sched.supervisor.quarantineAfter = 4;
    s.sched.supervisor.quarantineRounds = 16;
    return cfg;
}

/** One defense configuration under campaign fire. */
struct SweepPoint
{
    double divProb;
    uint32_t ratEntries;
    size_t randSpaceBytes;

    uint64_t ttcRounds = 0; ///< median time-to-compromise (rounds)
    uint64_t p99Rounds = 0;
    double availability = 0;
    uint64_t compromises = 0;
    uint32_t secretSpace = 0;
};

struct CampaignOutcome
{
    uint64_t ttcRounds;
    FleetReport fleet;
    attack::CampaignReport camp;
};

CampaignOutcome
runCampaign(const FleetConfig &base, attack::CampaignStrategy strat,
            uint64_t attackerSeed)
{
    FleetConfig cfg = base;
    attack::CampaignConfig ccfg = attack::campaignConfigFor(
        strat, attackerSeed, cfg.seed,
        cfg.server.hipstr.psr.randSpaceBytes,
        cfg.server.hipstr.diversificationProbability, cfg.shards);
    ccfg.probeFrac = 0.6; // hostile tenant owns 60% of traffic
    attack::CampaignEngine eng(ccfg);
    cfg.campaign = &eng;

    ProtectedFleet fleet(compiledWorkload("httpd", benchScale(2)),
                         cfg);
    CampaignOutcome out{ 0, fleet.run(), eng.report() };
    if (out.fleet.requestsServed + out.fleet.requestsShed +
            out.fleet.requestsAbandoned !=
        out.fleet.requestsOffered) {
        hipstr_fatal("hostile run leaked requests: %llu served + "
                     "%llu shed + %llu abandoned != %llu offered",
                     (unsigned long long)out.fleet.requestsServed,
                     (unsigned long long)out.fleet.requestsShed,
                     (unsigned long long)out.fleet.requestsAbandoned,
                     (unsigned long long)out.fleet.requestsOffered);
    }
    // Censor at run length: a campaign that never landed a payload
    // held out for at least the whole run.
    out.ttcRounds = out.camp.compromises > 0
        ? out.camp.firstCompromiseRound
        : out.fleet.rounds;
    return out;
}

uint64_t
median3(uint64_t a, uint64_t b, uint64_t c)
{
    uint64_t v[3] = { a, b, c };
    std::sort(v, v + 3);
    return v[1];
}

/** Median-over-seeds campaign run of one sweep point. */
void
measurePoint(const FleetConfig &base, SweepPoint &p)
{
    FleetConfig cfg = base;
    cfg.server.hipstr.diversificationProbability = p.divProb;
    cfg.server.hipstr.psr.ratEntries = p.ratEntries;
    cfg.server.hipstr.psr.randSpaceBytes = p.randSpaceBytes;

    uint64_t ttc[3], p99[3];
    double avail[3];
    uint64_t compromises = 0;
    uint32_t space = static_cast<uint32_t>(
        std::max<size_t>(4, p.randSpaceBytes / 1024));
    for (int i = 0; i < 3; ++i) {
        CampaignOutcome o = runCampaign(
            cfg, attack::CampaignStrategy::OutcomeBrute,
            kAttackerSeeds[i]);
        ttc[i] = o.ttcRounds;
        p99[i] = o.fleet.p99Rounds;
        avail[i] = o.fleet.availability;
        compromises += o.camp.compromises;
    }
    p.ttcRounds = median3(ttc[0], ttc[1], ttc[2]);
    p.p99Rounds = median3(p99[0], p99[1], p99[2]);
    std::sort(avail, avail + 3);
    p.availability = avail[1];
    p.compromises = compromises;
    p.secretSpace = space;
}

/** Non-dominated subset: maximize ttc, minimize p99. Returns indices
 *  sorted by rising ttc (frontier p99 is then non-decreasing by
 *  construction — the property the JSON gate re-checks). */
std::vector<size_t>
paretoFrontier(const std::vector<SweepPoint> &pts)
{
    std::vector<size_t> idx(pts.size());
    for (size_t i = 0; i < idx.size(); ++i)
        idx[i] = i;
    std::vector<size_t> front;
    for (size_t i : idx) {
        bool dominated = false;
        for (size_t j : idx) {
            if (j == i)
                continue;
            const bool geq = pts[j].ttcRounds >= pts[i].ttcRounds &&
                pts[j].p99Rounds <= pts[i].p99Rounds;
            const bool gt = pts[j].ttcRounds > pts[i].ttcRounds ||
                pts[j].p99Rounds < pts[i].p99Rounds;
            if (geq && gt) {
                dominated = true;
                break;
            }
        }
        if (!dominated)
            front.push_back(i);
    }
    std::sort(front.begin(), front.end(), [&](size_t a, size_t b) {
        return pts[a].ttcRounds != pts[b].ttcRounds
            ? pts[a].ttcRounds < pts[b].ttcRounds
            : pts[a].p99Rounds < pts[b].p99Rounds;
    });
    // Equal-ttc frontier points with different p99: only the cheapest
    // is truly non-dominated; the loop above already removed the
    // rest, so consecutive duplicates can only be exact ties. Keep
    // one.
    front.erase(std::unique(front.begin(), front.end(),
                            [&](size_t a, size_t b) {
                                return pts[a].ttcRounds ==
                                    pts[b].ttcRounds;
                            }),
                front.end());
    return front;
}

void
runCampaignPareto()
{
    std::cout << "\n=== campaign pareto sweep ===\n";
    const FleetConfig base = hostileFleetConfig();
    auto &reg = benchMetrics();

    // The defender's knob grid: migration probability x RAT size x
    // stack-entropy window. Small on purpose — each point is three
    // full hostile fleet runs.
    std::vector<SweepPoint> pts;
    for (double div : { 0.25, 1.0 })
        for (uint32_t rat : { 128u, 512u })
            for (size_t rsb : { size_t(4096), size_t(65536) })
                pts.push_back(SweepPoint{ div, rat, rsb });

    std::cout << base.shards << " shards x " << base.server.workers
              << " workers, " << base.requestCount
              << " requests/run, 60% hostile tenancy, "
              << pts.size() << " defense points x 3 attacker seeds\n";

    for (size_t i = 0; i < pts.size(); ++i) {
        measurePoint(base, pts[i]);
        const std::string p = "pareto.p" + std::to_string(i) + ".";
        reg.counter(p + "div_permille")
            .set(uint64_t(pts[i].divProb * 1000));
        reg.counter(p + "rat_entries").set(pts[i].ratEntries);
        reg.counter(p + "rand_space_bytes")
            .set(pts[i].randSpaceBytes);
        reg.counter(p + "secret_space").set(pts[i].secretSpace);
        reg.counter(p + "ttc_rounds").set(pts[i].ttcRounds);
        reg.counter(p + "latency_p99_rounds").set(pts[i].p99Rounds);
        reg.gauge(p + "availability").set(pts[i].availability);
        reg.counter(p + "compromises").set(pts[i].compromises);
        if (pts[i].ttcRounds == 0)
            hipstr_fatal("point %zu: zero time-to-compromise", i);
    }

    const std::vector<size_t> front = paretoFrontier(pts);
    reg.counter("pareto.points").set(pts.size());
    reg.counter("pareto.frontier.size").set(front.size());
    for (size_t j = 0; j < front.size(); ++j) {
        const SweepPoint &p = pts[front[j]];
        const std::string f =
            "pareto.frontier.f" + std::to_string(j) + ".";
        reg.counter(f + "point").set(front[j]);
        reg.counter(f + "ttc_rounds").set(p.ttcRounds);
        reg.counter(f + "latency_p99_rounds").set(p.p99Rounds);
    }

    // Headline duel: outcome-conditioned vs outcome-blind at an equal
    // probe budget on one protected server with a 32-position secret
    // space — time-to-compromise measured in probes (censored at the
    // budget), so attacker effort compares directly. Hard failure
    // when adaptive feedback buys nothing — the whole campaign engine
    // would be inert.
    const uint64_t budget = benchOptions().smoke ? 400 : 1'200;
    auto duelTtc = [&](attack::CampaignStrategy strat, uint64_t seed) {
        ServerConfig scfg;
        scfg.workers = 4;
        scfg.requestCount = benchOptions().smoke ? 500 : 1'500;
        scfg.hipstr.diversificationProbability = 1.0;
        scfg.hipstr.psr.randSpaceBytes = 32768;
        attack::CampaignConfig ccfg = attack::campaignConfigFor(
            strat, seed, scfg.seed, scfg.hipstr.psr.randSpaceBytes,
            1.0, 1);
        ccfg.probeBudget = budget;
        attack::CampaignEngine eng(ccfg);
        scfg.campaign = &eng;
        ProtectedServer srv(compiledWorkload("httpd", 1), scfg);
        (void)srv.run();
        const attack::CampaignReport r = eng.report();
        return r.compromises > 0 ? r.firstCompromiseProbe : budget;
    };
    uint64_t one[3], ada[3];
    for (int i = 0; i < 3; ++i) {
        one[i] = duelTtc(attack::CampaignStrategy::OneShot,
                         kAttackerSeeds[i]);
        ada[i] = duelTtc(attack::CampaignStrategy::OutcomeBrute,
                         kAttackerSeeds[i]);
    }
    const uint64_t oneMed = median3(one[0], one[1], one[2]);
    const uint64_t adaMed = median3(ada[0], ada[1], ada[2]);
    if (adaMed >= oneMed) {
        hipstr_fatal("adaptive campaign no faster than one-shot: "
                     "median ttc %llu vs %llu probes",
                     (unsigned long long)adaMed,
                     (unsigned long long)oneMed);
    }
    reg.counter("pareto.duel.probe_budget").set(budget);
    reg.counter("pareto.duel.oneshot_ttc_probes").set(oneMed);
    reg.counter("pareto.duel.adaptive_ttc_probes").set(adaMed);
    reg.counter("pareto.duel.adaptive_beats_oneshot").set(1);

    // Replay self-check: a journaled hostile single-server run must
    // replay bit-exactly with no engine attached (the journal already
    // carries every rewritten probe).
    ServerConfig scfg = base.server;
    scfg.requestCount = benchOptions().smoke ? 150 : 600;
    attack::CampaignConfig rcfg = attack::campaignConfigFor(
        attack::CampaignStrategy::RespawnTiming, 0x5150, scfg.seed,
        scfg.hipstr.psr.randSpaceBytes,
        scfg.hipstr.diversificationProbability, 1);
    attack::CampaignEngine reng(rcfg);
    scfg.campaign = &reng;
    const std::string path = "bench_campaign_pareto_rec.hjl";
    replay::RecordResult rec = replay::recordRun(
        compiledWorkload("httpd", benchScale(2)), scfg, path);
    scfg.campaign = nullptr;
    replay::ReplayResult rep = replay::replayRun(
        compiledWorkload("httpd", benchScale(2)), scfg, path);
    if (rep.report.signature != rec.report.signature) {
        hipstr_fatal("hostile replay diverged: %016llx != %016llx",
                     (unsigned long long)rep.report.signature,
                     (unsigned long long)rec.report.signature);
    }
    reg.counter("pareto.replay_match").set(1);
    reg.counter("pareto.config.shards").set(base.shards);
    reg.counter("pareto.config.requests").set(base.requestCount);
    reg.counter("pareto.config.seed").set(base.seed);

    TextTable table({ "Point", "div", "RAT", "entropy(B)",
                      "ttc (rounds)", "p99 (rounds)", "avail",
                      "frontier" });
    auto u64 = [](uint64_t v) { return std::to_string(v); };
    for (size_t i = 0; i < pts.size(); ++i) {
        const SweepPoint &p = pts[i];
        char div[16], av[16];
        std::snprintf(div, sizeof div, "%.2f", p.divProb);
        std::snprintf(av, sizeof av, "%.4f", p.availability);
        const bool onFront =
            std::find(front.begin(), front.end(), i) != front.end();
        table.addRow({ "p" + std::to_string(i), div,
                       u64(p.ratEntries), u64(p.randSpaceBytes),
                       u64(p.ttcRounds), u64(p.p99Rounds), av,
                       onFront ? "*" : "" });
    }
    table.print(std::cout);
    std::cout << "duel: adaptive median ttc " << adaMed
              << " probes vs one-shot " << oneMed
              << " (lower = attacker wins sooner); journaled hostile "
                 "run replayed bit-exactly\n";
}

} // namespace

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, "campaign_pareto",
                     runCampaignPareto);
}
