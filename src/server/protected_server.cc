#include "protected_server.hh"

#include <algorithm>

#include "attack/campaign.hh"
#include "binary/loader.hh"
#include "isa/interp.hh"
#include "support/fnv.hh"
#include "support/logging.hh"

namespace hipstr
{

namespace
{

/** Safety valve against scheduling livelock; generous by orders of
 *  magnitude over any configured stream. */
constexpr uint64_t kMaxRounds = 100'000'000;

} // namespace

ProtectedServer::ProtectedServer(const FatBinary &bin,
                                 const ServerConfig &cfg)
    : ProtectedServer(bin, cfg,
                      cfg.verifyOutput ? referenceChecksum(bin) : 0)
{
}

ProtectedServer::ProtectedServer(const FatBinary &bin,
                                 const ServerConfig &cfg,
                                 uint64_t expected_checksum)
    : _bin(bin), _cfg(cfg), _cmp(cfg.cmp), _sched(_cmp, cfg.sched),
      _stream(cfg.seed, cfg.mix, cfg.costs)
{
    hipstr_assert(cfg.workers > 0);
    _sched.trace = cfg.trace;
    const FaultPlan *active = nullptr;
    if (cfg.faultPlanOverride != nullptr) {
        active = cfg.faultPlanOverride;
    } else if (cfg.faults.enabled) {
        _plan = std::make_unique<FaultPlan>(cfg.faults);
        active = _plan.get();
    }
    if (active != nullptr)
        _sched.faultPlan = active;

    for (unsigned i = 0; i < cfg.workers; ++i) {
        GuestProcessConfig pcfg;
        pcfg.pid = i;
        pcfg.seed = cfg.seed;
        pcfg.hipstr = cfg.hipstr;
        pcfg.outputCap = cfg.outputCap;
        if (active != nullptr) {
            pcfg.faultPlan = active;
            pcfg.watchdogQuanta = cfg.watchdogQuanta;
        }
        auto proc = std::make_unique<GuestProcess>(bin, pcfg);
        if (cfg.verifyOutput)
            proc->setExpectedChecksum(expected_checksum);
        proc->runtime().setTraceBuffer(cfg.trace);
        _workers.push_back(std::move(proc));
    }
}

uint64_t
ProtectedServer::referenceChecksum(const FatBinary &bin)
{
    // One native run on the reference interpreter: the guest's output
    // is ISA-independent (the workloads are self-checking), so one
    // checksum covers every worker on either ISA.
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    Interpreter interp(IsaKind::Cisc, mem, os);
    initMachineState(interp.state, bin, IsaKind::Cisc);
    RunResult r = interp.run(1'000'000'000);
    if (r.reason != StopReason::Exited && r.reason != StopReason::Halted)
        hipstr_fatal("server reference run did not complete: %s",
                     stopReasonName(r.reason));
    return os.outputChecksum();
}

void
ProtectedServer::beginRun()
{
    ServeState st;
    st.inflight.assign(_workers.size(), InFlight{});
    st.retired.assign(_workers.size(), false);
    st.latencies.reserve(static_cast<size_t>(
        std::min<uint64_t>(_cfg.requestCount, 1 << 20)));

    // Request-lifecycle tracing on the modeled timeline (one round =
    // one quantum per core through the CMP's aggregate rate).
    using telemetry::TraceCategory;
    telemetry::TraceBuffer *tr = _cfg.trace;
    st.traced = tr != nullptr && tr->enabled(TraceCategory::Server);
    double agg = _cmp.aggregateInstsPerSecond();
    if (agg > 0) {
        st.usPerRound = double(_cfg.sched.quantumInsts) *
            double(_cmp.totalCores()) / agg * 1e6;
    }
    st.begun = true;
    _serve = std::move(st);

    // Degraded-mode gauge for dashboards.
    if (_cfg.metrics != nullptr)
        _cfg.metrics->gauge("server.degraded_mode").set(0);
}

Request
drawRequest(uint64_t id, const RequestStream &stream, ServerTap *tap,
            attack::CampaignEngine *campaign, uint32_t shard,
            uint64_t session, uint64_t round)
{
    Request r;
    if (tap != nullptr && tap->supplyRequest(id, r))
        return r;
    r = stream.make(id);
    if (campaign != nullptr)
        campaign->rewrite(r, shard, session, round);
    if (tap != nullptr)
        tap->requestDrawn(r);
    return r;
}

bool
ProtectedServer::stepRound(ThreadPool *pool)
{
    ServeState &st = _serve;
    hipstr_assert(st.begun);
    if (st.finished)
        return false;
    if (st.done >= _cfg.requestCount || st.roundNo >= kMaxRounds) {
        st.finished = true;
        return false;
    }

    // Fill the idle workers the retries leave over from the stream.
    const unsigned idle = admissionCapacity();
    while (st.intake.size() < idle && st.nextId < _cfg.requestCount) {
        const uint64_t id = st.nextId++;
        st.intake.push_back(drawRequest(id, _stream, _cfg.tap,
                                        _cfg.campaign,
                                        _cfg.campaignShard, 0,
                                        st.roundNo));
    }

    // Nothing runnable now or parked for later, and nothing to
    // assign: either all requests are done, or the remaining ones
    // cannot be served (every worker retired).
    if (_sched.idle() && !_sched.hasConvalescents() &&
        (liveWorkers() == 0 ||
         (st.intake.empty() && st.nextId >= _cfg.requestCount))) {
        st.finished = true;
        return false;
    }

    serveRound(pool);

    // A retired worker's request goes back to the head of the intake
    // for another worker.
    for (const Request &r : _round.retried)
        st.intake.push_front(r);
    // All workers gone: the remaining stream is unservable.
    if (st.finished)
        st.report.requestsAbandoned = _cfg.requestCount - st.done;

    // Commit the campaign's buffered observations once per round.
    if (_cfg.campaign != nullptr)
        _cfg.campaign->commitRound(st.roundNo);

    // The round completed (even if it finished the run) — let a
    // recorder flush its per-round journal records and sync point.
    if (_cfg.tap != nullptr)
        _cfg.tap->roundEnd(st.roundNo, roundSyncSignature());

    return !st.finished;
}

void
ProtectedServer::serveRound(ThreadPool *pool)
{
    ServeState &st = _serve;
    hipstr_assert(st.begun);
    _round.completed.clear();
    _round.retried.clear();
    if (st.finished)
        return;

    using telemetry::TraceCategory;
    telemetry::TraceBuffer *tr = _cfg.trace;
    const bool traced = st.traced;
    const double us_per_round = st.usPerRound;

    // ---- Assign intake to idle workers in pid order. ----
    for (size_t w = 0; w < _workers.size() && !st.intake.empty(); ++w) {
        GuestProcess &proc = *_workers[w];
        if (st.retired[w] || st.inflight[w].active ||
            proc.state() != ProcState::Blocked) {
            continue;
        }
        const Request r = st.intake.front();
        st.intake.pop_front();
        proc.beginService(r.costInsts);
        // Stage the request's payload only on first delivery — a
        // retried request already burned its exploit.
        if (r.retries == 0) {
            if (r.kind == RequestKind::Attack)
                (void)proc.injectAttackProbe(r.id);
            else if (r.kind == RequestKind::Malformed)
                (void)proc.injectCorruption(r.id);
        }
        InFlight f{ r, st.roundNo, true };
        // Staging-time facts for the campaign's compromise oracle and
        // crash detection; cheap and deterministic, so captured
        // unconditionally (checkpoint format stays campaign-free).
        f.assignIsa = proc.isa();
        f.assignGeneration = static_cast<uint32_t>(
            proc.runtime().vm(proc.isa()).randomizer().generation());
        f.assignRespawns = proc.respawnCount();
        st.inflight[w] = f;
        _sched.notifyReady(&proc);
        if (traced) {
            tr->record(
                telemetry::traceInstant(
                    TraceCategory::Server, "server.request.assign",
                    double(st.roundNo) * us_per_round,
                    static_cast<uint32_t>(w) + 1)
                    .arg("id", r.id)
                    .arg("kind", static_cast<uint64_t>(r.kind))
                    .arg("cost_insts", r.costInsts)
                    .arg("retries", r.retries));
        }
    }

    _sched.round(pool);
    ++st.roundNo;

    if (faultPlan() != nullptr) {
        const bool deg = _sched.degraded();
        if (deg != st.wasDegraded) {
            if (_cfg.metrics != nullptr)
                _cfg.metrics->gauge("server.degraded_mode")
                    .set(deg ? 1 : 0);
            if (deg) {
                st.degradedStart = st.roundNo;
            } else if (traced) {
                tr->record(telemetry::traceSpan(
                    TraceCategory::Server, "server.degraded",
                    double(st.degradedStart) * us_per_round,
                    double(st.roundNo - st.degradedStart) *
                        us_per_round,
                    0));
            }
            st.wasDegraded = deg;
        }
    }

    // ---- Poll outcomes in pid order. ----
    for (size_t w = 0; w < _workers.size(); ++w) {
        GuestProcess &proc = *_workers[w];
        if (!st.inflight[w].active)
            continue;

        if (proc.state() == ProcState::Blocked) {
            // Service complete.
            const Request &r = st.inflight[w].req;
            uint64_t lat = st.roundNo - st.inflight[w].startRound;
            if (_cfg.campaign != nullptr) {
                // A crash the poll loop never saw as a Crashed state
                // (immediate-respawn supervisor configs) still reset
                // the connection: the respawn-count delta says so.
                if (!st.inflight[w].crashSeen &&
                    proc.respawnCount() >
                        st.inflight[w].assignRespawns) {
                    attack::ProbeEvent cev;
                    cev.id = r.id;
                    cev.signal = attack::ProbeSignal::Crash;
                    cev.shard = _cfg.campaignShard;
                    cev.worker = static_cast<uint32_t>(w);
                    cev.latencyRounds = lat;
                    cev.isaAtEvent = proc.isa();
                    cev.isaAtAssign = st.inflight[w].assignIsa;
                    cev.generationAtAssign =
                        st.inflight[w].assignGeneration;
                    _cfg.campaign->observe(cev);
                }
                attack::ProbeEvent ev;
                ev.id = r.id;
                ev.signal = attack::ProbeSignal::Response;
                ev.shard = _cfg.campaignShard;
                ev.worker = static_cast<uint32_t>(w);
                ev.latencyRounds = lat;
                ev.payloadDelivered = r.retries == 0;
                ev.isaAtEvent = proc.isa();
                ev.isaAtAssign = st.inflight[w].assignIsa;
                ev.generationAtAssign =
                    st.inflight[w].assignGeneration;
                _cfg.campaign->observe(ev);
            }
            st.latencies.push_back(lat);
            ++st.report.requestsServed;
            ++st.report.servedByKind[static_cast<size_t>(r.kind)];
            fnvFold64(st.sig, r.id);
            fnvFold64(st.sig, static_cast<uint64_t>(r.kind));
            fnvFold64(st.sig, lat);
            fnvFold64(st.sig, static_cast<uint64_t>(w));
            if (traced) {
                tr->record(
                    telemetry::traceSpan(
                        TraceCategory::Server, "server.request",
                        double(st.inflight[w].startRound) *
                            us_per_round,
                        double(lat) * us_per_round,
                        static_cast<uint32_t>(w) + 1)
                        .arg("id", r.id)
                        .arg("kind", static_cast<uint64_t>(r.kind))
                        .arg("latency_rounds", lat));
            }
            st.inflight[w].active = false;
            ++st.done;
            _round.completed.push_back(r);
        } else if (proc.state() == ProcState::Crashed) {
            // The campaign sees every crash as a connection reset,
            // exactly once per service attempt (the worker stays
            // Crashed for every round it convalesces).
            if (_cfg.campaign != nullptr && !st.inflight[w].crashSeen) {
                st.inflight[w].crashSeen = true;
                attack::ProbeEvent ev;
                ev.id = st.inflight[w].req.id;
                ev.signal = attack::ProbeSignal::Crash;
                ev.shard = _cfg.campaignShard;
                ev.worker = static_cast<uint32_t>(w);
                ev.latencyRounds =
                    st.roundNo - st.inflight[w].startRound;
                ev.isaAtEvent = proc.isa();
                ev.isaAtAssign = st.inflight[w].assignIsa;
                ev.generationAtAssign =
                    st.inflight[w].assignGeneration;
                _cfg.campaign->observe(ev);
            }
            if (!_sched.isRetired(&proc))
                continue;
            // Still Crashed after the scheduler round *and*
            // permanently retired (a worker merely parked in the
            // supervisor's infirmary keeps its request and will
            // finish it after respawning). The owner re-routes the
            // retired worker's request.
            st.retired[w] = true;
            Request r = st.inflight[w].req;
            ++r.retries;
            _round.retried.push_back(r);
            st.inflight[w].active = false;
            if (traced) {
                tr->record(
                    telemetry::traceInstant(
                        TraceCategory::Server,
                        "server.request.retry",
                        double(st.roundNo) * us_per_round,
                        static_cast<uint32_t>(w) + 1)
                        .arg("id", r.id)
                        .arg("retries", r.retries));
            }
        }
    }

    // Every worker retired: nothing will ever step again.
    if (liveWorkers() == 0)
        st.finished = true;
}

ServerReport
ProtectedServer::finishRun()
{
    ServeState &st = _serve;
    hipstr_assert(st.begun);
    st.finished = true;

    // ---- Aggregate. ----
    ServerReport report = st.report;
    uint64_t sig = st.sig;
    report.rounds = st.roundNo;
    const SchedulerStats &ss = _sched.stats();
    report.migrationsRouted = ss.migrationsRouted;
    report.respawns = ss.respawns;
    report.retiredWorkers = ss.retired;
    report.coreOutages = ss.coreOutages;
    report.coreRecoveries = ss.coreRecoveries;
    report.offlineCoreQuanta = ss.offlineCoreQuanta;
    report.degradedEntries = ss.degradedEntries;
    report.degradedExits = ss.degradedExits;
    report.degradedRounds = ss.degradedRounds;
    report.reroutes = ss.reroutes;
    report.rerouteRespawns = ss.rerouteRespawns;
    report.quarantines = ss.quarantines;
    report.recoveries = ss.recoveries;
    report.meanRoundsToRecover = _sched.meanRoundsToRecover();
    for (const auto &proc : _workers) {
        GuestProcessStats s = proc->stats();
        report.totalGuestInsts += s.guestInsts;
        for (size_t i = 0; i < kNumIsas; ++i)
            report.guestInstsPerIsa[i] += s.guestInstsPerIsa[i];
        report.migrations += s.migrations;
        report.migrationsDenied += s.migrationsDenied;
        report.securityEvents += proc->securityEvents();
        report.crashes += s.crashes;
        report.programsCompleted += s.programsCompleted;
        report.checksumMismatches += s.checksumMismatches;
        report.probesStaged += s.probesStaged;
        report.phases += s.phases;
        for (size_t k = 0; k < kNumFaultKinds; ++k) {
            report.faultsInjected[k] += s.faultsInjected[k];
            report.faultsInjectedTotal += s.faultsInjected[k];
        }
        report.wedgedQuanta += s.wedgedQuanta;
        report.watchdogKills += s.watchdogKills;
        report.transformAborts += s.transformAborts;
        report.migrationsSuppressed += s.migrationsSuppressed;
        report.emergencyRelocations += s.emergencyRelocations;
        fnvFold64(sig, proc->statsSignature());
    }

    if (faultPlan() != nullptr && _cfg.metrics != nullptr) {
        telemetry::MetricRegistry &m = *_cfg.metrics;
        for (size_t k = 1; k < kNumFaultKinds; ++k) {
            m.counter(std::string("server.fault.") +
                      faultKindName(static_cast<FaultKind>(k)))
                .set(report.faultsInjected[k]);
        }
        m.counter("server.fault.total").set(report.faultsInjectedTotal);
        m.counter("server.fault.wedged_quanta").set(report.wedgedQuanta);
        m.counter("server.fault.watchdog_kills")
            .set(report.watchdogKills);
        m.counter("server.fault.transform_aborts")
            .set(report.transformAborts);
        m.counter("server.fault.migrations_suppressed")
            .set(report.migrationsSuppressed);
        m.counter("server.fault.emergency_relocations")
            .set(report.emergencyRelocations);
        m.counter("server.fault.core_outages").set(report.coreOutages);
        m.counter("server.fault.core_recoveries")
            .set(report.coreRecoveries);
        m.counter("server.fault.offline_core_quanta")
            .set(report.offlineCoreQuanta);
        m.counter("server.fault.degraded_entries")
            .set(report.degradedEntries);
        m.counter("server.fault.degraded_exits")
            .set(report.degradedExits);
        m.counter("server.fault.degraded_rounds")
            .set(report.degradedRounds);
        m.counter("server.fault.reroutes").set(report.reroutes);
        m.counter("server.fault.reroute_respawns")
            .set(report.rerouteRespawns);
        m.counter("server.fault.quarantines").set(report.quarantines);
        m.counter("server.fault.recoveries").set(report.recoveries);
        m.gauge("server.fault.mean_rounds_to_recover")
            .set(report.meanRoundsToRecover);
    }

    if (!st.latencies.empty()) {
        std::vector<uint64_t> sorted = st.latencies;
        std::sort(sorted.begin(), sorted.end());
        double sum = 0;
        for (uint64_t l : sorted)
            sum += double(l);
        report.latency.meanRounds = sum / double(sorted.size());
        report.latency.p50Rounds = sorted[sorted.size() / 2];
        report.latency.p95Rounds =
            sorted[std::min(sorted.size() - 1,
                            sorted.size() * 95 / 100)];
        report.latency.maxRounds = sorted.back();
    }

    // Modeled time: every round advances the machine by one quantum
    // on each core; the CMP's aggregate rate converts that to
    // seconds. Purely configuration-derived — no host clock touches
    // the report.
    double agg = _cmp.aggregateInstsPerSecond();
    if (agg > 0) {
        report.modeledSeconds =
            double(report.rounds) *
            double(_cfg.sched.quantumInsts) *
            double(_cmp.totalCores()) / agg;
        if (report.modeledSeconds > 0) {
            report.requestsPerModeledSecond =
                double(report.requestsServed) /
                report.modeledSeconds;
        }
    }

    report.signature = sig;
    return report;
}

ServerReport
ProtectedServer::run(ThreadPool *pool)
{
    beginRun();
    while (stepRound(pool)) {
    }
    return finishRun();
}

void
ProtectedServer::submit(const Request &r)
{
    hipstr_assert(_serve.begun);
    _serve.intake.push_back(r);
}

unsigned
ProtectedServer::admissionCapacity() const
{
    const ServeState &st = _serve;
    hipstr_assert(st.begun);
    unsigned n = 0;
    for (size_t w = 0; w < _workers.size(); ++w) {
        if (!st.retired[w] && !st.inflight[w].active &&
            _workers[w]->state() == ProcState::Blocked) {
            ++n;
        }
    }
    return n;
}

unsigned
ProtectedServer::liveWorkers() const
{
    const ServeState &st = _serve;
    hipstr_assert(st.begun);
    unsigned n = 0;
    for (size_t w = 0; w < _workers.size(); ++w)
        n += st.retired[w] ? 0 : 1;
    return n;
}

uint64_t
ProtectedServer::roundSyncSignature() const
{
    uint64_t h = kFnvOffsetBasis;
    fnvFold64(h, _serve.roundNo);
    fnvFold64(h, _serve.done);
    fnvFold64(h, _serve.nextId);
    for (const auto &proc : _workers)
        fnvFold64(h, proc->statsSignature());
    return h;
}

template <class Io, class Self>
void
ProtectedServer::ServeState::fields(Io &io, Self &st)
{
    io.u64(st.report.requestsServed);
    io.u64(st.report.requestsAbandoned);
    for (auto &n : st.report.servedByKind)
        io.u64(n);
    for (auto &f : st.inflight) {
        Request::fields(io, f.req);
        io.u64(f.startRound);
        io.boolean(f.active);
        io.bounded(f.assignIsa, kNumIsas);
        io.u32(f.assignGeneration);
        io.u32(f.assignRespawns);
        io.boolean(f.crashSeen);
    }
    for (size_t i = 0; i < st.retired.size(); ++i)
        io.boolean(st.retired[i]);
    io.count(st.intake, Request::kBytes);
    for (auto &r : st.intake)
        Request::fields(io, r);
    io.u64(st.nextId);
    io.count64(st.latencies, 8);
    for (auto &l : st.latencies)
        io.u64(l);
    io.u64(st.sig);
    io.u64(st.roundNo);
    io.u64(st.done);
    io.boolean(st.wasDegraded);
    io.u64(st.degradedStart);
    io.boolean(st.finished);
}

void
ProtectedServer::saveCheckpoint(ByteWriter &w) const
{
    hipstr_assert(_serve.begun);
    w.u32(uint32_t(_workers.size()));
    ServeState::fields(w, _serve);
    _sched.saveState(w);
    for (const auto &proc : _workers)
        proc->saveState(w);
}

void
ProtectedServer::loadCheckpoint(ByteReader &r)
{
    ServeState &st = _serve;
    hipstr_assert(st.begun);
    if (r.u32() != _workers.size())
        throw SerializeError(SerializeErrc::Corrupt,
                             "checkpoint worker count mismatch");
    // Per-worker arrays carry no count in the image.
    st.report = ServerReport{};
    st.inflight.assign(_workers.size(), InFlight{});
    st.retired.assign(_workers.size(), false);
    ServeState::fields(r, st);

    _sched.loadState(r, [this](uint32_t pid) -> GuestProcess * {
        return pid < _workers.size() ? _workers[pid].get() : nullptr;
    });
    for (auto &proc : _workers)
        proc->loadState(r);
}

} // namespace hipstr
