#include "probes.hh"

#include <string>

#include "binary/loader.hh"
#include "core/relocation.hh"
#include "core/translator.hh"
#include "hipstr/runtime.hh"
#include "isa/codec.hh"
#include "isa/interp.hh"
#include "server/guest_process.hh"
#include "support/random.hh"

namespace perfbench
{

using namespace hipstr;

namespace
{

/** Each timed probe loop repeats its body until this much host time
 *  has passed, so one probe result is not a single short sample. */
constexpr double kMinProbeSeconds = 0.05;

/** Instruction cap of a run to exit (every program exits far below). */
constexpr uint64_t kMaxInsts = 1'000'000'000;

/** Wipe the mutable image and reload the program, as a respawn does. */
void
reloadImage(Memory &mem, const FatBinary &bin)
{
    mem.zeroRange(layout::kDataBase,
                  layout::kStackTop - layout::kDataBase);
    loadFatBinary(bin, mem);
}

} // namespace

uint64_t
referenceChecksum(const FatBinary &bin, IsaKind isa, bool &ok,
                  uint64_t *insts)
{
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    Interpreter interp(isa, mem, os);
    initMachineState(interp.state, bin, isa);
    RunResult r = interp.run(kMaxInsts);
    ok = r.reason == StopReason::Exited;
    if (insts != nullptr)
        *insts = r.instsExecuted;
    return ok ? os.outputChecksum() : 0;
}

void
probeDecode(Tracer &t, const Programs &bins)
{
    ScopedSpan span(&t, "isa.decode_probe");
    uint64_t decodes = 0;
    double secs = 0;
    for (const FatBinary *bin : bins) {
        for (IsaKind isa : kAllIsas) {
            Memory mem;
            loadFatBinary(*bin, mem);
            const Addr base = layout::codeBase(isa);
            const Addr end = base + bin->codeSizeOf(isa);
            uint64_t valid = 0;
            const double t0 = nowSeconds();
            do {
                for (Addr a = base; a < end; ++a) {
                    MachInst mi;
                    valid += decodeInst(isa, mem, a, mi) ? 1 : 0;
                    ++decodes;
                }
            } while (nowSeconds() - t0 < kMinProbeSeconds / 4);
            secs += nowSeconds() - t0;
            t.count("isa.decode_valid", double(valid));
        }
    }
    t.count("isa.decode_ns", secs * 1e9 / double(decodes));
}

void
probeTranslate(Tracer &t, OpsLedger &ops, const Programs &bins,
               uint64_t seed)
{
    ScopedSpan span(&t, "core.translate_probe");
    double secs = 0;
    uint64_t insts = 0, units = 0, failed = 0, attempted = 0;
    for (const FatBinary *bin : bins) {
        for (IsaKind isa : kAllIsas) {
            Memory mem;
            loadFatBinary(*bin, mem);
            PsrConfig cfg;
            cfg.seed = seed;
            Randomizer rnd(*bin, isa, cfg);
            const auto &funcs = bin->funcsFor(isa);
            bool first = true;
            const double t0 = nowSeconds();
            do {
                // Fresh maps, generated before the clock runs so only
                // translation is timed.
                rnd.reRandomize();
                for (const FuncInfo &fi : funcs)
                    (void)rnd.mapFor(fi.funcId);
                PsrTranslator tr(*bin, isa, rnd, mem);
                const double t1 = nowSeconds();
                for (const FuncInfo &fi : funcs) {
                    TranslateError err = TranslateError::None;
                    ++attempted;
                    if (tr.translate(fi.entry, err) == nullptr)
                        ++failed;
                }
                secs += nowSeconds() - t1;
                insts += tr.guestInstsTranslated();
                if (first)
                    units += tr.unitsTranslated();
                first = false;
            } while (nowSeconds() - t0 < kMinProbeSeconds / 4);
        }
    }
    ops.record(attempted, failed, "translate probe: entry failed");
    t.count("core.translate_ns_per_inst",
            insts ? secs * 1e9 / double(insts) : 0);
    // Units of the first repetition only, so the count does not
    // depend on how many repetitions fit.
    t.count("core.translate_units", double(units));
}

void
probeMapgen(Tracer &t, const Programs &bins, uint64_t seed)
{
    ScopedSpan span(&t, "core.mapgen_probe");
    double secs = 0;
    uint64_t regenerations = 0;
    for (const FatBinary *bin : bins) {
        for (IsaKind isa : kAllIsas) {
            PsrConfig cfg;
            cfg.seed = seed;
            Randomizer rnd(*bin, isa, cfg);
            const auto &funcs = bin->funcsFor(isa);
            const double t0 = nowSeconds();
            do {
                rnd.reRandomize();
                for (const FuncInfo &fi : funcs)
                    (void)rnd.mapFor(fi.funcId);
                ++regenerations;
            } while (nowSeconds() - t0 < kMinProbeSeconds / 4);
            secs += nowSeconds() - t0;
        }
    }
    t.count("core.mapgen_us", secs * 1e6 / double(regenerations));
}

void
probeRewarm(Tracer &t, OpsLedger &ops, const Programs &bins,
            uint64_t seed)
{
    ScopedSpan span(&t, "vm.rewarm_probe");
    constexpr int kReps = 3;
    double cold = 0, warm = 0;
    for (const FatBinary *bin : bins) {
        bool refOk = false;
        const uint64_t want =
            referenceChecksum(*bin, IsaKind::Cisc, refOk);
        Memory mem;
        loadFatBinary(*bin, mem);
        GuestOs os;
        PsrConfig cfg;
        cfg.seed = seed;
        PsrVm vm(*bin, IsaKind::Cisc, mem, os, cfg);
        uint64_t bad = 0;
        for (int rep = 0; rep < kReps; ++rep) {
            for (bool fresh : { true, false }) {
                reloadImage(mem, *bin);
                os.reset();
                if (fresh)
                    vm.reRandomize();
                vm.reset();
                const double t0 = nowSeconds();
                VmRunResult r = vm.run(kMaxInsts);
                (fresh ? cold : warm) += nowSeconds() - t0;
                if (r.reason != VmStop::Exited ||
                    os.outputChecksum() != want || !refOk)
                    ++bad;
            }
        }
        ops.record(2 * kReps, bad,
                   "rewarm probe: run did not reproduce the reference "
                   "output of " + bin->name);
    }
    t.count("vm.cold_run_ms", cold * 1e3 / kReps);
    t.count("vm.warm_run_ms", warm * 1e3 / kReps);
    t.count("vm.rewarm_ratio", warm > 0 ? cold / warm : 0);
}

void
probeMigration(Tracer &t, OpsLedger &ops, const Programs &bins,
               uint64_t seed)
{
    ScopedSpan span(&t, "migration.transform_probe");
    constexpr unsigned kPoints = 4;
    double secs = 0;
    uint64_t attempted = 0;
    uint64_t state = seed;
    for (const FatBinary *bin : bins) {
        for (IsaKind start : kAllIsas) {
            for (unsigned c = 0; c < kPoints; ++c) {
                Memory mem;
                loadFatBinary(*bin, mem);
                GuestOs os;
                HipstrConfig hc;
                hc.startIsa = start;
                hc.psr.seed = splitMix64(state);
                HipstrRuntime rt(*bin, mem, os, hc);
                rt.reset();
                const uint64_t skip = 5'000 + splitMix64(state) % 60'000;
                if (rt.vm(start).run(skip).reason != VmStop::StepLimit)
                    continue; // program too short for this point
                ++attempted;
                const double t0 = nowSeconds();
                (void)rt.forceMigration();
                secs += nowSeconds() - t0;
            }
        }
    }
    // A point with no safe equivalence point in reach is a legitimate
    // outcome, not a failure; every attempt is still timed.
    ops.record(attempted, 0, "");
    t.count("migration.transform_us",
            attempted ? secs * 1e6 / double(attempted) : 0);
}

void
probeRespawn(Tracer &t, OpsLedger &ops, const FatBinary &bin,
             const ServerConfig &cfg)
{
    ScopedSpan span(&t, "server.respawn_probe");
    constexpr unsigned kRespawns = 12;
    GuestProcessConfig pc;
    pc.seed = cfg.seed;
    pc.hipstr = cfg.hipstr;
    pc.outputCap = cfg.outputCap;
    GuestProcess p(bin, pc);
    p.beginService(UINT64_MAX / 2);
    double secs = 0;
    unsigned done = 0, attempts = 0;
    while (done < kRespawns && attempts < 4 * kRespawns) {
        ++attempts;
        // Warm the worker, then stage an SFI-violating return.
        if (p.state() == ProcState::Ready)
            (void)p.runQuantum(cfg.sched.quantumInsts);
        if (p.state() != ProcState::Ready)
            continue;
        if (!p.injectCorruption(attempts))
            continue;
        (void)p.runQuantum(cfg.sched.quantumInsts);
        if (p.state() != ProcState::Crashed)
            continue;
        const double t0 = nowSeconds();
        p.respawn();
        secs += nowSeconds() - t0;
        ++done;
    }
    ops.record(kRespawns, kRespawns - done,
               "respawn probe: staged crashes did not crash");
    t.count("server.respawn_ms", done ? secs * 1e3 / done : 0);
}

void
probeLayers(Tracer &t, OpsLedger &ops, const Programs &bins,
            uint64_t seed)
{
    uint64_t s = seed;
    probeDecode(t, bins);
    probeTranslate(t, ops, bins, splitMix64(s));
    probeMapgen(t, bins, splitMix64(s));
    probeRewarm(t, ops, bins, splitMix64(s));
    probeMigration(t, ops, bins, splitMix64(s));
}

void
harvestVm(Tracer *t, const PsrVm &vm)
{
    if (t == nullptr)
        return;
    const VmStats &s = vm.stats;
    t->count("vm.translations", double(s.translations));
    t->count("vm.cache_flushes", double(s.cacheFlushes));
    t->count("vm.dispatches", double(s.dispatches));
    t->count("vm.trace_follows", double(s.traceFollows));
    t->count("vm.security_events", double(s.securityEvents));
    const jit::JitStats &j = vm.jitStats();
    t->count("jit.compiled_traces", double(j.compiledTraces));
    t->count("jit.code_bytes", double(j.codeBytes));
    t->count("jit.executions", double(j.executions));
    t->count("jit.side_exits", double(j.sideExits));
    t->count("jit.bailouts", double(j.bailouts));
}

void
harvestServer(Tracer *t, const ProtectedServer &srv)
{
    if (t == nullptr)
        return;
    for (const auto &w : srv.workers()) {
        for (IsaKind isa : kAllIsas)
            harvestVm(t, w->runtime().vm(isa));
    }
    t->count("server.quanta", double(srv.scheduler().stats().quantaRun));
}

} // namespace perfbench
