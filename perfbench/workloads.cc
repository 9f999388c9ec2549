#include "workloads.hh"

#include <cstdio>
#include <exception>
#include <optional>
#include <sstream>

#include "attack/campaign.hh"
#include "binary/loader.hh"
#include "compiler/compile.hh"
#include "fleet/fleet.hh"
#include "isa/interp.hh"
#include "probes.hh"
#include "replay/journal.hh"
#include "replay/record_replay.hh"
#include "server/protected_server.hh"
#include "sim/timing.hh"
#include "support/random.hh"
#include "vm/psr_vm.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

using namespace hipstr;

namespace
{

constexpr uint64_t kMaxInsts = 1'000'000'000;

/** Independent input seed number @p salt of the benchmark seed. */
uint64_t
derive(uint64_t seed, uint64_t salt)
{
    uint64_t s = seed * 0x9e3779b97f4a7c15ull + salt;
    return splitMix64(s);
}

/** FNV-1a fold of one 64-bit value into @p h. */
uint64_t
fold(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/**
 * Build and compile one guest program inside a compiler span. The
 * program keeps its default data seed: the workloads' self-checks are
 * validated for that data only (httpd's restarted generations stop
 * matching the reference checksum under some other data seeds).
 */
FatBinary
compileProgram(Tracer *t, const std::string &name, uint32_t scale)
{
    ScopedSpan span(t, "compiler.compile");
    count(t, "compiler.compile_calls", 1);
    WorkloadConfig wc;
    wc.scale = scale;
    return compileModule(buildWorkload(name, wc));
}

/** loadFatBinary inside a binary-layer span. */
void
load(Tracer *t, const FatBinary &bin, Memory &mem)
{
    ScopedSpan span(t, "binary.load");
    count(t, "binary.load_calls", 1);
    loadFatBinary(bin, mem);
}

/** Fold the counts every request-conservation check needs. */
struct Disposal
{
    uint64_t offered = 0;
    uint64_t served = 0;
    uint64_t shed = 0;
    uint64_t abandoned = 0;
    uint64_t mismatches = 0;
};

/** Record requests as operations: a request that was not served, or
 *  a served one whose worker produced a wrong checksum, failed. A
 *  conservation leak fails the whole batch. */
void
recordRequests(OpsLedger &ops, const std::string &what,
               const Disposal &d, uint64_t expectedOffered)
{
    const bool conserved =
        d.served + d.shed + d.abandoned == d.offered &&
        d.offered == expectedOffered;
    const uint64_t failed = conserved
        ? d.shed + d.abandoned + d.mismatches
        : d.offered;
    std::ostringstream msg;
    msg << what << ": offered " << d.offered << " (expected "
        << expectedOffered << "), served " << d.served << ", shed "
        << d.shed << ", abandoned " << d.abandoned
        << ", checksum mismatches " << d.mismatches;
    ops.record(std::max(d.offered, expectedOffered), failed, msg.str());
}

uint64_t
shardMismatches(const FleetReport &r)
{
    uint64_t n = 0;
    for (const ServerReport &s : r.shardReports)
        n += s.checksumMismatches;
    return n;
}

/** Counts every traced fleet run contributes. */
void
harvestFleet(Tracer *t, ProtectedFleet &fleet, const FleetReport &r)
{
    if (t == nullptr)
        return;
    for (unsigned k = 0; k < fleet.shards(); ++k)
        harvestServer(t, fleet.shard(k));
    t->count("server.crashes", r.crashes);
    t->count("server.respawns", r.respawns);
    t->count("migration.calls", r.migrations);
}

/** Fleet round gaps, observed through the fleet's public tap seam.
 *  Attached only in traced runs. */
class RoundGapTap : public FleetTap
{
  public:
    explicit RoundGapTap(Tracer &t) : _t(t) {}

    /** The fleet run starts now. */
    void start() { _last = nowSeconds(); }

    void
    roundEnd(uint64_t, uint64_t) override
    {
        const double now = nowSeconds();
        _t.sample("fleet.round_ms", (now - _last) * 1e3);
        _last = now;
    }

  private:
    Tracer &_t;
    double _last = 0;
};

// ---------------------------------------------------------------- figure

/**
 * fig9's cell shape: every SPEC-like program at scale 3 on Cisc at
 * O1-O3 and on Risc at O3. A cell is a reference interpreter run to
 * exit, a timed native run and a timed PSR VM run (40% warm-up).
 */
class FigureWorkload : public Workload
{
  public:
    explicit FigureWorkload(const Inputs &in) : Workload(in)
    {
        for (size_t p = 0; p < specWorkloadNames().size(); ++p) {
            for (unsigned opt = 1; opt <= 3; ++opt)
                _cells.push_back(Cell{ p, IsaKind::Cisc, opt });
            _cells.push_back(Cell{ p, IsaKind::Risc, 3 });
        }
    }

    std::string
    describe() const override
    {
        std::ostringstream os;
        os << specWorkloadNames().size() << " programs x scale "
           << kScale << ", " << _cells.size()
           << " cells (Cisc O1-O3 + Risc O3), 3 runs per cell";
        return os.str();
    }

    void
    setup(Tracer *t) override
    {
        const auto &names = specWorkloadNames();
        _bins = parallelMap(
            names.size(),
            [&](size_t i) { return compileProgram(t, names[i], kScale); },
            _in.pool);
        // Reference output checksum of every (program, ISA), one
        // interpreter run to exit each.
        std::vector<uint64_t> insts(_bins.size() * kNumIsas);
        _refs = parallelMap(
            insts.size(),
            [&](size_t i) {
                ScopedSpan span(t, "isa.reference");
                bool ok = false;
                const uint64_t sum =
                    referenceChecksum(_bins[i / kNumIsas],
                                      kAllIsas[i % kNumIsas], ok,
                                      &insts[i]);
                return ok ? std::optional<uint64_t>(sum) : std::nullopt;
            },
            _in.pool);
        // Longest cells first, so the pass does not end on one long
        // cell running alone; results stay indexed by cell.
        _order.resize(_cells.size());
        for (size_t i = 0; i < _order.size(); ++i)
            _order[i] = i;
        auto cost = [&](size_t c) {
            return insts[_cells[c].prog * kNumIsas +
                         size_t(_cells[c].isa)];
        };
        std::stable_sort(_order.begin(), _order.end(),
                         [&](size_t a, size_t b) {
                             return cost(a) > cost(b);
                         });
    }

    PassResult
    pass(Tracer *t, OpsLedger &ops) override
    {
        ScopedSpan root(t, "bench.pass");
        const double t0 = nowSeconds();
        std::vector<CellOut> outs(_cells.size());
        parallelFor(
            _cells.size(),
            [&](size_t k) {
                outs[_order[k]] = runCell(t, root.id(), _order[k]);
            },
            _in.pool);
        PassResult r;
        r.wallS = r.servingS = nowSeconds() - t0;

        uint64_t failed = 0;
        std::string firstWhy;
        r.signature = kFnvBasis;
        for (size_t i = 0; i < outs.size(); ++i) {
            const CellOut &c = outs[i];
            if (!c.why.empty()) {
                ++failed;
                if (firstWhy.empty())
                    firstWhy = c.why;
            }
            r.guestInsts += c.vmInsts;
            r.signature = fold(r.signature, c.checksum);
            r.signature = fold(r.signature, c.vmInsts);
            r.signature = fold(r.signature, c.nativeCycles);
            r.signature = fold(r.signature, c.vmCycles);
        }
        r.ops = outs.size();
        ops.record(outs.size(), failed, "figure cell: " + firstWhy);
        return r;
    }

    void
    probes(Tracer &t, OpsLedger &ops) override
    {
        Programs bins;
        for (const FatBinary &b : _bins)
            bins.push_back(&b);
        probeLayers(t, ops, bins, derive(_in.seed, 3));
        ServerConfig worker;
        worker.seed = derive(_in.seed, 7);
        probeRespawn(t, ops, _bins.front(), worker);
    }

  private:
    static constexpr uint32_t kScale = 3;

    struct Cell
    {
        size_t prog;
        IsaKind isa;
        unsigned opt;
    };

    struct CellOut
    {
        std::string why; ///< empty = every check passed
        uint64_t checksum = 0;
        uint64_t vmInsts = 0;
        uint64_t nativeCycles = 0;
        uint64_t vmCycles = 0;
    };

    CellOut
    runCell(Tracer *t, uint64_t parent, size_t i) const
    {
        ScopedSpan cellSpan(t, "bench.cell", parent);
        const Cell &cell = _cells[i];
        const FatBinary &bin = _bins[cell.prog];
        CellOut out;
        try {
            runCellChecked(t, cell, bin, i, out);
        } catch (const std::exception &e) {
            out.why = bin.name + ": " + e.what();
        }
        return out;
    }

    void
    runCellChecked(Tracer *t, const Cell &cell, const FatBinary &bin,
                   size_t i, CellOut &out) const
    {
        const std::string where = bin.name + "/" + isaName(cell.isa) +
            "/O" + std::to_string(cell.opt);
        auto fail = [&](const std::string &why) {
            if (out.why.empty())
                out.why = where + ": " + why;
        };

        // Reference run to exit: instruction count and output checksum.
        uint64_t total = 0;
        {
            Memory mem;
            load(t, bin, mem);
            GuestOs os;
            Interpreter interp(cell.isa, mem, os);
            initMachineState(interp.state, bin, cell.isa);
            RunResult r;
            {
                ScopedSpan span(t, "isa.interp");
                r = interp.run(kMaxInsts);
            }
            count(t, "isa.interp_insts", double(r.instsExecuted));
            if (r.reason != StopReason::Exited)
                fail(std::string("reference run stopped: ") +
                     stopReasonName(r.reason));
            total = r.instsExecuted;
            out.checksum = os.outputChecksum();
            const std::optional<uint64_t> &ref =
                _refs[cell.prog * kNumIsas + size_t(cell.isa)];
            if (!ref || *ref != out.checksum)
                fail("reference run differs from the set-up checksum");
        }
        const uint64_t warmup = total * 2 / 5;

        // Timed native run; the L0 stands in for store-to-load
        // forwarding, as in the figure harness.
        {
            ScopedSpan span(t, "sim.native_timed");
            Memory mem;
            load(t, bin, mem);
            GuestOs os;
            Interpreter interp(cell.isa, mem, os);
            initMachineState(interp.state, bin, cell.isa);
            TimingHarness harness(cell.isa, /*reg_cache_on=*/true);
            (void)interp.run(warmup);
            harness.attachInterpreter(interp);
            TimingSnapshot s0 = harness.snapshot();
            RunResult r = interp.run(kMaxInsts);
            if (r.reason != StopReason::Exited)
                fail(std::string("native run stopped: ") +
                     stopReasonName(r.reason));
            if (os.outputChecksum() != out.checksum)
                fail("native output differs from the reference");
            out.nativeCycles = uint64_t(harness.nativeCyclesSince(s0));
        }

        // Timed PSR VM run, warmed up the same way.
        {
            ScopedSpan span(t, "sim.vm_timed");
            Memory mem;
            load(t, bin, mem);
            GuestOs os;
            PsrConfig cfg;
            cfg.optLevel = cell.opt;
            cfg.seed = derive(_in.seed, 1000 + i);
            PsrVm vm(bin, cell.isa, mem, os, cfg);
            vm.reset();
            TimingHarness harness(cell.isa,
                                  cfg.globalRegCache() &&
                                      !cfg.isomeronMode,
                                  cfg.regCacheEntries);
            harness.attachVm(vm);
            VmRunResult w = vm.run(warmup);
            if (w.reason != VmStop::StepLimit)
                fail(std::string("vm warm-up stopped: ") +
                     vmStopName(w.reason));
            VmStats before = vm.stats;
            TimingSnapshot s0 = harness.snapshot();
            VmRunResult r = vm.run(kMaxInsts);
            if (r.reason != VmStop::Exited)
                fail(std::string("vm run stopped: ") +
                     vmStopName(r.reason));
            if (os.outputChecksum() != out.checksum)
                fail("vm output checksum differs from the reference");
            out.vmCycles =
                uint64_t(harness.vmCyclesSince(before, vm.stats, s0));
            out.vmInsts = vm.stats.guestInsts;
            harvestVm(t, vm);
        }
    }

    std::vector<Cell> _cells;
    std::vector<FatBinary> _bins;
    /** Set-up reference checksums, index prog * kNumIsas + isa. */
    std::vector<std::optional<uint64_t>> _refs;
    /** Cell execution order: longest reference run first. */
    std::vector<size_t> _order;
};

// ----------------------------------------------------------------- fleet

/** Fleet knobs shared by the fleet and campaign workloads. */
void
superviseLikeTheBenches(ServerConfig &s)
{
    s.watchdogQuanta = 3;
    s.sched.supervisor.backoffBaseRounds = 2;
    s.sched.supervisor.backoffCapRounds = 8;
    s.sched.supervisor.quarantineAfter = 4;
    s.sched.supervisor.quarantineRounds = 16;
}

/**
 * bench_fleet_serving's headline shape: 4 shards x 8 workers serving
 * httpd under 3% attack + 3% malformed traffic, 0.5% quantum faults
 * and 0.1% core failures, work stealing on, no SLO. Arrivals are an
 * open loop in modeled time (8 per fleet round); the host runs the
 * fleet as a batch job.
 */
class FleetWorkload : public Workload
{
  public:
    explicit FleetWorkload(const Inputs &in) : Workload(in)
    {
        _cfg.shards = 4;
        _cfg.requestCount = kRequests;
        _cfg.seed = derive(in.seed, 10);
        _cfg.mix.attackFrac = 0.03;
        _cfg.mix.malformedFrac = 0.03;
        _cfg.sessions = 64;
        _cfg.queueCap = 64;
        _cfg.batchSize = 8;
        _cfg.workStealing = true;
        ServerConfig &s = _cfg.server;
        s.workers = 8;
        s.hipstr.diversificationProbability = 1.0;
        superviseLikeTheBenches(s);
        s.faults.enabled = true;
        s.faults.quantumFaultRate = 0.005;
        s.faults.coreFailRate = 0.001;
    }

    std::string
    describe() const override
    {
        std::ostringstream os;
        os << _cfg.shards << " shards x " << _cfg.server.workers
           << " workers, httpd scale " << kScale << ", "
           << _cfg.requestCount << " requests, 8 per round";
        return os.str();
    }

    void
    setup(Tracer *t) override
    {
        _fleet.reset();
        _bin = compileProgram(t, "httpd", kScale);
        _fleet = std::make_unique<ProtectedFleet>(_bin, _cfg);
    }

    PassResult
    pass(Tracer *t, OpsLedger &ops) override
    {
        std::unique_ptr<RoundGapTap> tap;
        if (t != nullptr) {
            // The tap only observes; the caller checks that the traced
            // fleet's signature equals the untraced one.
            tap = std::make_unique<RoundGapTap>(*t);
            FleetConfig traced = _cfg;
            traced.tap = tap.get();
            _fleet.reset();
            _fleet = std::make_unique<ProtectedFleet>(_bin, traced);
        } else if (!_fleet) {
            _fleet = std::make_unique<ProtectedFleet>(_bin, _cfg);
        }

        PassResult r;
        FleetReport rep;
        {
            ScopedSpan root(t, "bench.pass");
            if (tap)
                tap->start();
            const double t0 = nowSeconds();
            {
                ScopedSpan span(t, "fleet.run");
                rep = _fleet->run(_in.pool);
            }
            r.wallS = r.servingS = nowSeconds() - t0;
        }
        recordRequests(ops, "fleet",
                       Disposal{ rep.requestsOffered, rep.requestsServed,
                                 rep.requestsShed, rep.requestsAbandoned,
                                 shardMismatches(rep) },
                       _cfg.requestCount);
        r.ops = rep.requestsServed;
        r.guestInsts = rep.totalGuestInsts;
        r.signature = rep.signature;
        harvestFleet(t, *_fleet, rep);
        count(t, "fleet.rounds", double(rep.rounds));
        count(t, "fleet.steals", double(rep.steals));
        // One fleet alive at a time: its workers' images dominate
        // the process's memory.
        _fleet.reset();
        _fleet = std::make_unique<ProtectedFleet>(_bin, _cfg);
        return r;
    }

    void
    probes(Tracer &t, OpsLedger &ops) override
    {
        _fleet.reset();
        const Programs bins{ &_bin };
        probeLayers(t, ops, bins, derive(_in.seed, 13));
        probeRespawn(t, ops, _bin, shardServerConfig(_cfg, 0));
    }

  private:
    static constexpr uint32_t kScale = 2;
    static constexpr uint64_t kRequests = 8'000;

    FleetConfig _cfg;
    FatBinary _bin;
    std::unique_ptr<ProtectedFleet> _fleet;
};

// -------------------------------------------------------------- campaign

/**
 * A hostile 2-shard x 4-worker httpd fleet under the adaptive
 * OutcomeBrute campaign at 60% hostile tenancy, over two of
 * bench_campaign_pareto's defense points and two attacker seeds.
 */
class CampaignWorkload : public Workload
{
  public:
    explicit CampaignWorkload(const Inputs &in) : Workload(in)
    {
        _base.shards = 2;
        _base.requestCount = kRequests;
        _base.seed = derive(in.seed, 20);
        _base.sessions = 32;
        _base.batchSize = 16;
        _base.workStealing = true;
        ServerConfig &s = _base.server;
        s.workers = 4;
        s.sched.respawnLimit = 0;
        superviseLikeTheBenches(s);

        // Two corners of the pareto grid: weak (rare migration, small
        // RAT, 4 KiB stack entropy) and strong (always migrate, big
        // RAT, 64 KiB).
        const struct
        {
            double div;
            uint32_t rat;
            size_t rsb;
        } points[] = { { 0.25, 128, 4096 }, { 1.0, 512, 65536 } };
        for (const auto &p : points) {
            for (uint64_t a = 0; a < kAttackerSeeds; ++a) {
                Run run;
                run.cfg = _base;
                ServerConfig &rs = run.cfg.server;
                rs.hipstr.diversificationProbability = p.div;
                rs.hipstr.psr.ratEntries = p.rat;
                rs.hipstr.psr.randSpaceBytes = p.rsb;
                run.attackerSeed = derive(in.seed, 21 + a);
                _runs.push_back(run);
            }
        }
    }

    std::string
    describe() const override
    {
        std::ostringstream os;
        os << _base.shards << " shards x " << _base.server.workers
           << " workers, httpd scale " << kScale << ", "
           << _runs.size() << " hostile runs (2 defense points x "
           << kAttackerSeeds << " attacker seeds) of "
           << _base.requestCount << " requests, 60% hostile";
        return os.str();
    }

    void
    setup(Tracer *t) override
    {
        _fleet.reset();
        _bin = compileProgram(t, "httpd", kScale);
        prepare(0);
    }

    PassResult
    pass(Tracer *t, OpsLedger &ops) override
    {
        PassResult r;
        r.signature = kFnvBasis;
        ScopedSpan root(t, "bench.pass");
        for (size_t i = 0; i < _runs.size(); ++i) {
            if (!_fleet)
                prepare(i);
            FleetReport rep;
            const double t0 = nowSeconds();
            {
                ScopedSpan span(t, "attack.run");
                rep = _fleet->run(_in.pool);
            }
            const double secs = nowSeconds() - t0;
            r.wallS += secs;
            r.servingS += secs;
            const attack::CampaignReport camp = _engine->report();
            recordRequests(ops, "campaign run " + std::to_string(i),
                           Disposal{ rep.requestsOffered,
                                     rep.requestsServed,
                                     rep.requestsShed,
                                     rep.requestsAbandoned,
                                     shardMismatches(rep) },
                           _base.requestCount);
            r.ops += rep.requestsServed;
            r.guestInsts += rep.totalGuestInsts;
            r.signature = fold(r.signature, rep.signature);
            r.signature = fold(r.signature, camp.signature);
            harvestFleet(t, *_fleet, rep);
            count(t, "fleet.rounds", double(rep.rounds));
            count(t, "fleet.steals", double(rep.steals));
            count(t, "attack.probes", double(camp.probesSent));
            count(t, "attack.crashes_observed",
                  double(camp.crashesObserved));
            count(t, "attack.compromises", double(camp.compromises));
            _fleet.reset();
            ScopedSpan span(t, "fleet.construct");
            prepare((i + 1) % _runs.size());
        }
        return r;
    }

    void
    probes(Tracer &t, OpsLedger &ops) override
    {
        _fleet.reset();
        const Programs bins{ &_bin };
        probeLayers(t, ops, bins, derive(_in.seed, 25));
        probeRespawn(t, ops, _bin, shardServerConfig(_runs[0].cfg, 0));
    }

  private:
    static constexpr uint32_t kScale = 2;
    static constexpr uint64_t kRequests = 1'000;
    static constexpr uint64_t kAttackerSeeds = 2;

    struct Run
    {
        FleetConfig cfg;
        uint64_t attackerSeed = 0;
    };

    /** Construct run @p i's engine and fleet (untimed). */
    void
    prepare(size_t i)
    {
        FleetConfig cfg = _runs[i].cfg;
        attack::CampaignConfig cc = attack::campaignConfigFor(
            attack::CampaignStrategy::OutcomeBrute,
            _runs[i].attackerSeed, cfg.seed,
            cfg.server.hipstr.psr.randSpaceBytes,
            cfg.server.hipstr.diversificationProbability, cfg.shards);
        cc.probeFrac = 0.6;
        _engine = std::make_unique<attack::CampaignEngine>(cc);
        cfg.campaign = _engine.get();
        _fleet = std::make_unique<ProtectedFleet>(_bin, cfg);
    }

    FleetConfig _base;
    std::vector<Run> _runs;
    FatBinary _bin;
    std::unique_ptr<attack::CampaignEngine> _engine;
    std::unique_ptr<ProtectedFleet> _fleet;
};

// --------------------------------------------------------- record_replay

/**
 * bench_record_replay's chaos server: 16 workers with quantum faults,
 * core failures and a scripted Risc blackout. A plain run the
 * benchmark steps itself, then recordRun with periodic checkpoints,
 * a full replayRun, and a replayWindow from the mid-run round.
 */
class RecordReplayWorkload : public Workload
{
  public:
    explicit RecordReplayWorkload(const Inputs &in) : Workload(in)
    {
        _cfg.workers = 16;
        _cfg.requestCount = kRequests;
        _cfg.seed = derive(in.seed, 30);
        _cfg.mix.attackFrac = 0.02;
        _cfg.mix.malformedFrac = 0.02;
        _cfg.hipstr.diversificationProbability = 1.0;
        _cfg.watchdogQuanta = 3;
        _cfg.sched.supervisor.backoffBaseRounds = 1;
        _cfg.sched.supervisor.backoffCapRounds = 8;
        _cfg.sched.supervisor.quarantineAfter = 4;
        _cfg.sched.supervisor.quarantineRounds = 16;
        _cfg.faults.enabled = true;
        _cfg.faults.quantumFaultRate = 0.01;
        _cfg.faults.coreFailRate = 0.002;
        _cfg.faults.scriptedOutageIsa = IsaKind::Risc;
        _cfg.faults.scriptedOutageRound = 40;
        _cfg.faults.scriptedOutageRounds = 30;
        _journal = in.scratchDir + "/record_replay.hjl";
    }

    ~RecordReplayWorkload() override { std::remove(_journal.c_str()); }

    std::string
    describe() const override
    {
        std::ostringstream os;
        os << _cfg.workers << " workers, httpd scale " << kScale << ", "
           << _cfg.requestCount
           << " requests, 1% quantum faults, Risc blackout at round "
           << _cfg.faults.scriptedOutageRound
           << ", checkpoint every " << kCheckpointEvery << " rounds";
        return os.str();
    }

    void
    setup(Tracer *t) override
    {
        _server.reset();
        _bin = compileProgram(t, "httpd", kScale);
        _server = std::make_unique<ProtectedServer>(_bin, _cfg);
    }

    PassResult
    pass(Tracer *t, OpsLedger &ops) override
    {
        PassResult r;
        ScopedSpan root(t, "bench.pass");

        // Plain run, stepped round by round, on a server constructed
        // before the clock starts (set-up, or the end of the previous
        // pass). recordRun and the replays construct their own, so
        // their times include one construction.
        const double t0 = nowSeconds();
        ServerReport base;
        {
            ScopedSpan span(t, "server.plain_run");
            if (!_server)
                _server = std::make_unique<ProtectedServer>(_bin, _cfg);
            _server->beginRun();
            for (bool more = true; more;) {
                const double s0 = nowSeconds();
                {
                    ScopedSpan step(t, "server.step");
                    more = _server->stepRound(_in.pool);
                }
                if (t != nullptr)
                    t->sample("server.round_ms",
                              (nowSeconds() - s0) * 1e3);
            }
            base = _server->finishRun();
        }
        r.servingS = nowSeconds() - t0;
        harvestServer(t, *_server);
        _server.reset();

        recordRequests(ops, "plain run",
                       Disposal{ base.requestsServed +
                                     base.requestsAbandoned,
                                 base.requestsServed, 0,
                                 base.requestsAbandoned,
                                 base.checksumMismatches },
                       _cfg.requestCount);
        r.ops = base.requestsServed;
        r.guestInsts = base.totalGuestInsts;
        count(t, "server.rounds", double(base.rounds));
        count(t, "server.crashes", base.crashes);
        count(t, "server.respawns", base.respawns);
        count(t, "migration.calls", base.migrations);
        _mid = base.rounds / 2;
        _baseSignature = base.signature;

        uint64_t recSig = 0, repSig = 0, winSig = 0, winStart = 0;
        try {
            replay::RecordOptions opts;
            opts.checkpointEveryRounds = kCheckpointEvery;
            double s0 = nowSeconds();
            replay::RecordResult rec;
            {
                ScopedSpan span(t, "replay.record");
                rec = replay::recordRun(_bin, _cfg, _journal, _in.pool,
                                        opts);
            }
            r.recordS = nowSeconds() - s0;
            recSig = rec.report.signature;
            count(t, "replay.journal_mb",
                  double(rec.journalBytes) / (1 << 20));
            count(t, "replay.checkpoints", double(rec.checkpoints));

            if (t != nullptr) {
                ScopedSpan span(t, "replay.parse");
                (void)replay::parseJournal(_journal);
            }

            s0 = nowSeconds();
            replay::ReplayResult rep;
            {
                ScopedSpan span(t, "replay.replay");
                rep = replay::replayRun(_bin, _cfg, _journal, _in.pool);
            }
            r.replayS = nowSeconds() - s0;
            repSig = rep.report.signature;

            s0 = nowSeconds();
            replay::ReplayResult win;
            {
                ScopedSpan span(t, "replay.window");
                win = replay::replayWindow(_bin, _cfg, _journal, _mid,
                                           _in.pool);
            }
            r.windowS = nowSeconds() - s0;
            winSig = win.report.signature;
            winStart = win.startRound;
        } catch (const std::exception &e) {
            ops.check(false, std::string("replay layer threw: ") +
                          e.what());
        }
        ops.check(recSig == base.signature,
                  "recording perturbed the run");
        ops.check(repSig == base.signature,
                  "replay signature differs from the recording");
        ops.check(winSig == base.signature && winStart > 0,
                  "windowed replay differs or found no checkpoint");

        r.wallS = r.servingS + r.recordS + r.replayS + r.windowS;
        r.signature = fold(fold(fold(fold(kFnvBasis, base.signature),
                                     recSig),
                                repSig),
                           winSig);
        _server = std::make_unique<ProtectedServer>(_bin, _cfg);
        return r;
    }

    void
    probes(Tracer &t, OpsLedger &ops) override
    {
        _server.reset();
        probeCheckpoint(t, ops);
        const Programs bins{ &_bin };
        probeLayers(t, ops, bins, derive(_in.seed, 33));
        probeRespawn(t, ops, _bin, _cfg);
    }

  private:
    static constexpr uint32_t kScale = 2;
    static constexpr uint64_t kRequests = 1'500;
    static constexpr uint64_t kCheckpointEvery = 128;

    /**
     * replay.checkpoint_ms/_mb and replay.restore_ms: save the server
     * at the mid-run round, restore into a fresh server, and run the
     * restored one to the end; it must finish with the plain run's
     * signature.
     */
    void
    probeCheckpoint(Tracer &t, OpsLedger &ops)
    {
        try {
            checkpointRoundTrip(t, ops);
        } catch (const std::exception &e) {
            ops.check(false, std::string("checkpoint probe threw: ") +
                          e.what());
        }
    }

    void
    checkpointRoundTrip(Tracer &t, OpsLedger &ops)
    {
        ScopedSpan span(&t, "replay.checkpoint_probe");
        ByteWriter w;
        {
            ProtectedServer a(_bin, _cfg);
            a.beginRun();
            while (a.roundNumber() < _mid && a.stepRound(_in.pool)) {
            }
            const double t0 = nowSeconds();
            a.saveCheckpoint(w);
            t.count("replay.checkpoint_ms", (nowSeconds() - t0) * 1e3);
        }
        t.count("replay.checkpoint_mb", double(w.size()) / (1 << 20));
        ProtectedServer b(_bin, _cfg);
        b.beginRun();
        ByteReader rd(w.data());
        const double t0 = nowSeconds();
        b.loadCheckpoint(rd);
        t.count("replay.restore_ms", (nowSeconds() - t0) * 1e3);
        while (b.stepRound(_in.pool)) {
        }
        ops.check(b.finishRun().signature == _baseSignature,
                  "server restored from a checkpoint diverged");
    }

    ServerConfig _cfg;
    FatBinary _bin;
    std::string _journal;
    std::unique_ptr<ProtectedServer> _server;
    uint64_t _mid = 0;
    uint64_t _baseSignature = 0;
};

} // namespace

unsigned
workloadJobs(const std::string &name, unsigned hardwareThreads)
{
    return name == "figure" ? std::min(4u, std::max(1u, hardwareThreads))
                            : 1;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "figure", "fleet", "campaign", "record_replay"
    };
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Inputs &in)
{
    if (name == "figure")
        return std::make_unique<FigureWorkload>(in);
    if (name == "fleet")
        return std::make_unique<FleetWorkload>(in);
    if (name == "campaign")
        return std::make_unique<CampaignWorkload>(in);
    if (name == "record_replay")
        return std::make_unique<RecordReplayWorkload>(in);
    return nullptr;
}

} // namespace perfbench
