#include "psr_vm.hh"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "binary/loader.hh"
#include "isa/interp.hh"
#include "sim/core_config.hh"
#include "sim/timing.hh"
#include "support/env.hh"
#include "support/logging.hh"

namespace hipstr
{

namespace
{

/** HIPSTR_JIT=0/off disables the trace tier; default on. */
bool
jitEnvEnabled()
{
    return envFlag("HIPSTR_JIT", true);
}

/**
 * Resolve the trace-JIT switch: the config/env knob ANDed with host
 * support. When the knob asks for the JIT but the host or build
 * cannot run it (non-x86-64, sanitizers), log the reason once so a
 * silent 0 in the jit.* counters is explicable.
 */
bool
resolveJitMode(const PsrConfig &cfg)
{
    bool wanted;
    switch (cfg.jitMode) {
      case PsrConfig::JitMode::On: wanted = true; break;
      case PsrConfig::JitMode::Off: wanted = false; break;
      default: wanted = jitEnvEnabled(); break;
    }
    if (!wanted)
        return false;
    const char *reason = nullptr;
    if (!jit::TraceJit::hostSupported(&reason)) {
        static bool warned = false;
        if (!warned) {
            warned = true;
            hipstr_inform("trace JIT auto-disabled: %s", reason);
        }
        return false;
    }
    return true;
}

} // namespace

const char *
vmStopName(VmStop s)
{
    switch (s) {
      case VmStop::Exited: return "exited";
      case VmStop::Halted: return "halted";
      case VmStop::Fault: return "fault";
      case VmStop::BadInst: return "bad-instruction";
      case VmStop::SfiViolation: return "sfi-violation";
      case VmStop::StepLimit: return "step-limit";
      case VmStop::MigrationRequested: return "migration-requested";
    }
    return "?";
}

PsrVm::PsrVm(const FatBinary &bin, IsaKind isa, Memory &mem,
             GuestOs &os, const PsrConfig &cfg)
    : state(isa), _bin(bin), _isa(isa), _mem(mem), _os(os),
      _cfg(cfg), _randomizer(bin, isa, cfg),
      _translator(bin, isa, _randomizer, mem),
      _cache(mem, isa, cfg.codeCacheBytes, cfg.blockPlacement()),
      _rat(cfg.ratEntries)
{
    // Modeled translation cost per guest instruction on this core:
    // cycles / (GHz * 1000) = microseconds.
    _translateUsPerInst = TimingParams{}.translateCyclesPerGuestInst /
        (coreConfig(isa).freqGhz * 1000.0);
    // Trace formation needs chained exits, so the trace tier rides
    // the same O1 switch as chaining itself.
    _jitOn = cfg.superblocks() && resolveJitMode(cfg);
}

void
PsrVm::publishTraceTelemetry(telemetry::MetricRegistry &reg) const
{
    reg.counter("trace.formed").set(_traces.stats.formed);
    reg.counter("trace.follows").set(stats.traceFollows);
    reg.counter("trace.invalidated").set(_traces.stats.invalidated);
}

void
PsrVm::publishJitTelemetry(telemetry::MetricRegistry &reg) const
{
    reg.counter("jit.compiledTraces").set(_jit.stats.compiledTraces);
    reg.counter("jit.codeBytes").set(_jit.stats.codeBytes);
    reg.counter("jit.executions").set(_jit.stats.executions);
    reg.counter("jit.sideExits").set(_jit.stats.sideExits);
    reg.counter("jit.bailouts").set(_jit.stats.bailouts);
    reg.counter("jit.invalidated").set(_jit.stats.invalidated);
}

double
PsrVm::traceTs() const
{
    return double(stats.guestInsts) /
        telemetry::cost::kGuestInstsPerMicro;
}

void
PsrVm::reset()
{
    initMachineState(state, _bin, _isa);
}

void
PsrVm::reRandomize()
{
    _randomizer.reRandomize();
    _cache.flush();
    _rat.flush();
    invalidateTraces();
    _vetted.clear();
    ++stats.cacheFlushes;
    if (trace && trace->enabled(telemetry::TraceCategory::Vm)) {
        trace->record(
            telemetry::traceInstant(telemetry::TraceCategory::Vm,
                                    "vm.rerandomize", traceTs(), 0,
                                    static_cast<uint32_t>(_isa))
                .arg("generation", _randomizer.generation()));
    }
}

void
PsrVm::flushTranslations()
{
    _cache.flush();
    _rat.flush();
    invalidateTraces();
    _vetted.clear();
    ++stats.cacheFlushes;
    if (trace && trace->enabled(telemetry::TraceCategory::Vm)) {
        trace->record(
            telemetry::traceInstant(telemetry::TraceCategory::Vm,
                                    "vm.fault_flush", traceTs(), 0,
                                    static_cast<uint32_t>(_isa)));
    }
}

void
PsrVm::saveState(ByteWriter &w) const
{
    // Architectural state.
    w.u8(uint8_t(state.isa));
    for (uint32_t r : state.regs)
        w.u32(r);
    w.boolean(state.flags.zf);
    w.boolean(state.flags.sf);
    w.boolean(state.flags.cf);
    w.boolean(state.flags.of);
    w.u32(state.pc);

    // Counters. traceFollows/chainFollows split legitimately varies
    // with HIPSTR_JIT, but both are saved verbatim: a checkpoint is
    // restored under the same knob setting it was taken under.
    w.u64(stats.guestInsts);
    w.u64(stats.hostInsts);
    w.u64(stats.memReads);
    w.u64(stats.memWrites);
    w.u64(stats.dispatches);
    w.u64(stats.chainFollows);
    w.u64(stats.traceFollows);
    w.u64(stats.translations);
    w.u64(stats.translatedGuestInsts);
    w.u64(stats.ratHits);
    w.u64(stats.ratMisses);
    w.u64(stats.indirectTransfers);
    w.u64(stats.codeCacheMisses);
    w.u64(stats.securityEvents);
    w.u64(stats.migrationsRequested);
    w.u64(stats.cacheFlushes);
    w.u64(stats.syscalls);
    w.u64(stats.diversificationFlips);

    w.u64(translatePhase.invocations);
    w.u64(translatePhase.workUnits);
    w.f64(translatePhase.modeledMicros);

    w.boolean(_decodeFaultArmed);
    _randomizer.saveState(w);
    _rat.saveState(w);

    // Vetted addresses: everything currently cache-resident, plus
    // any not-yet-drained vetted addresses if this VM is itself a
    // restored one. Sorted for a byte-deterministic image.
    std::vector<Addr> vetted(_vetted.begin(), _vetted.end());
    for (const auto &blk : _cache.blocks())
        vetted.push_back(blk->srcStart);
    std::sort(vetted.begin(), vetted.end());
    vetted.erase(std::unique(vetted.begin(), vetted.end()),
                 vetted.end());
    w.u32(uint32_t(vetted.size()));
    for (Addr a : vetted)
        w.u32(a);
}

void
PsrVm::loadState(ByteReader &r)
{
    // Drop every derived structure first: translations, traces and
    // memoized pointers rebuild cold, exactly as after a flush —
    // but without counter side effects; the counters come from the
    // snapshot below.
    _cache.flush();
    _rat.flush();
    invalidateTraces();

    IsaKind isa = IsaKind(r.u8());
    if (isa != _isa)
        throw SerializeError(SerializeErrc::Corrupt,
                             "VM checkpoint ISA mismatch");
    state.isa = isa;
    for (uint32_t &reg : state.regs)
        reg = r.u32();
    state.flags.zf = r.boolean();
    state.flags.sf = r.boolean();
    state.flags.cf = r.boolean();
    state.flags.of = r.boolean();
    state.pc = r.u32();

    stats.guestInsts = r.u64();
    stats.hostInsts = r.u64();
    stats.memReads = r.u64();
    stats.memWrites = r.u64();
    stats.dispatches = r.u64();
    stats.chainFollows = r.u64();
    stats.traceFollows = r.u64();
    stats.translations = r.u64();
    stats.translatedGuestInsts = r.u64();
    stats.ratHits = r.u64();
    stats.ratMisses = r.u64();
    stats.indirectTransfers = r.u64();
    stats.codeCacheMisses = r.u64();
    stats.securityEvents = r.u64();
    stats.migrationsRequested = r.u64();
    stats.cacheFlushes = r.u64();
    stats.syscalls = r.u64();
    stats.diversificationFlips = r.u64();

    translatePhase.invocations = r.u64();
    translatePhase.workUnits = r.u64();
    translatePhase.modeledMicros = r.f64();

    _decodeFaultArmed = r.boolean();
    _randomizer.loadState(r);
    _rat.loadState(r);

    _vetted.clear();
    uint32_t vetted = r.u32();
    _vetted.reserve(vetted);
    for (uint32_t i = 0; i < vetted; ++i)
        _vetted.insert(r.u32());
}

TranslatedBlock *
PsrVm::fetchBlock(Addr src, VmRunResult &stop)
{
    TranslatedBlock *blk = _cache.lookup(src);
    if (blk != nullptr)
        return blk;

    TranslateError err;
    auto unit = _translator.translate(src, err);
    if (!unit) {
        stop.reason = VmStop::BadInst;
        stop.stopPc = src;
        return nullptr;
    }
    stats.translations++;
    stats.translatedGuestInsts += unit->guestInstCount;
    translatePhase.add(unit->guestInstCount,
                       double(unit->guestInstCount) *
                           _translateUsPerInst);
    if (trace && trace->enabled(telemetry::TraceCategory::Vm)) {
        trace->record(
            telemetry::traceInstant(telemetry::TraceCategory::Vm,
                                    "vm.translate", traceTs(), 0,
                                    static_cast<uint32_t>(_isa))
                .arg("guest_pc", src)
                .arg("guest_insts", unit->guestInstCount));
    }

    uint64_t flushes_before = _cache.flushes();
    TranslatedBlock *placed = _cache.insert(std::move(unit));
    if (placed == nullptr) {
        stop.reason = VmStop::BadInst;
        stop.stopPc = src;
        return nullptr;
    }
    if (_cache.flushes() != flushes_before) {
        // A capacity flush invalidates every RAT entry, chain, and
        // trace. Retired traces are only *freed* at safe points: this
        // can run mid-trace (call-linkage translation), and the
        // executing trace checks the flush generation before touching
        // another trace-held pointer.
        _rat.flush();
        invalidateTraces();
        // The uninterrupted run's cache is empty after this flush, so
        // restore-vetting (which models "would have hit the cache")
        // must not outlive it either.
        _vetted.clear();
        ++stats.cacheFlushes;
    }
    return placed;
}

VmRunResult
PsrVm::run(uint64_t max_guest_insts)
{
    if (_decodeFaultArmed) {
        // Injected decode fault (src/fault): the corrupted entry trips
        // the decoder before a single instruction retires.
        _decodeFaultArmed = false;
        VmRunResult res;
        res.reason = VmStop::BadInst;
        res.stopPc = state.pc;
        if (trace && trace->enabled(telemetry::TraceCategory::Vm)) {
            trace->record(telemetry::traceInstant(
                telemetry::TraceCategory::Vm, "vm.injected_decode_fault",
                traceTs(), 0, static_cast<uint32_t>(_isa)));
        }
        return res;
    }
    // Safe point: no trace is executing, so traces retired by an
    // earlier mid-trace flush can be freed.
    _traces.collectRetired();

    const bool spans =
        trace && trace->enabled(telemetry::TraceCategory::Vm);
    const double ts0 = spans ? traceTs() : 0;
    const uint64_t g0 = stats.guestInsts;

    VmRunResult res = timing != nullptr
        ? runLoop<true>(max_guest_insts)
        : runLoop<false>(max_guest_insts);

    if (spans) {
        trace->record(
            telemetry::traceSpan(telemetry::TraceCategory::Vm,
                                 "vm.run", ts0, traceTs() - ts0, 0,
                                 static_cast<uint32_t>(_isa))
                .arg("ran", stats.guestInsts - g0)
                .arg("reason", static_cast<uint64_t>(res.reason)));
    }
    return res;
}

// Dispatch to a (possibly untranslated) guest target after an
// exit; returns nullptr when the run must stop.
TranslatedBlock *
PsrVm::dispatchTo(Addr target, VmRunResult &stop)
{
    state.pc = target;
    ++stats.dispatches; // every dispatcher entry costs a lookup
    return fetchBlock(target, stop);
}

bool
PsrVm::sfiAdmits(Addr target, VmRunResult &stop)
{
    ++stats.indirectTransfers;
    if (!_cache.contains(target))
        return true;
    stop.reason = VmStop::SfiViolation;
    stop.stopPc = target;
    return false;
}

TranslatedBlock *
PsrVm::cacheMiss(Addr target, VmRunResult &stop)
{
    // A target in the restored vetted set is consumed and translates
    // silently: the uninterrupted run would have hit the cache here.
    if (!_vetted.empty() && _vetted.erase(target) != 0)
        return fetchBlock(target, stop);
    // Indirect control transfer missing the code cache: the
    // PSR virtual machine suspects a security breach.
    ++stats.codeCacheMisses;
    ++stats.securityEvents;
    if (trace && trace->enabled(telemetry::TraceCategory::Vm)) {
        trace->record(telemetry::traceInstant(
                          telemetry::TraceCategory::Vm,
                          "vm.security_event", traceTs(), 0,
                          static_cast<uint32_t>(_isa))
                          .arg("target", target));
    }
    if (securityEventHook && securityEventHook(target)) {
        ++stats.migrationsRequested;
        stop.reason = VmStop::MigrationRequested;
        stop.stopPc = target;
        stop.migrationTarget = target;
        return nullptr;
    }
    return fetchBlock(target, stop);
}

// Post-SFI tail of an indirect exit or a syscall redirect: one
// dispatcher entry, counted before the lookup.
TranslatedBlock *
PsrVm::indirectResolve(Addr target, VmRunResult &stop)
{
    state.pc = target;
    ++stats.dispatches;
    TranslatedBlock *next = _cache.lookup(target);
    return next != nullptr ? next : cacheMiss(target, stop);
}

TranslatedBlock *
PsrVm::ratReturn(Addr target, VmRunResult &stop)
{
    if (controlTraceHook)
        controlTraceHook(target, 'R');
    if (_cfg.isomeronMode)
        ++stats.diversificationFlips;
    if (!sfiAdmits(target, stop))
        return nullptr;
    state.pc = target;
    Addr translated;
    TranslatedBlock *memo = nullptr;
    if (_rat.lookup(target, translated, memo)) {
        ++stats.ratHits;
        // Memoized translation: one RAT probe, zero hash lookups.
        // Valid because every code-cache flush also flushes the RAT.
        if (memo != nullptr)
            return memo;
        // A checkpoint-restored entry carries no memo (rat.hh): the
        // return stays a RAT hit and refetches silently.
        return fetchBlock(target, stop);
    }
    ++stats.ratMisses;
    // Trap into the translator. The dispatcher entry is counted only
    // once the target resolves.
    TranslatedBlock *next = _cache.lookup(target);
    if (next == nullptr)
        next = cacheMiss(target, stop);
    if (next == nullptr)
        return nullptr;
    _rat.insert(target, target, next);
    ++stats.dispatches;
    return next;
}

// Push/record a source return address for a call exit and make
// sure the RAT can translate it on return.
bool
PsrVm::emitCallLinkage(Addr source_ra, VmRunResult &stop)
{
    if (_isa == IsaKind::Cisc) {
        uint32_t sp = state.sp() - kWordSize;
        if (!_mem.tryWrite32(sp, source_ra)) {
            stop.reason = VmStop::Fault;
            stop.stopPc = state.pc;
            return false;
        }
        state.setSp(sp);
        ++stats.memWrites;
    } else {
        state.setReg(isaDescriptor(_isa).lrReg, source_ra);
    }
    // Eagerly translate the return point (the call macro-op
    // installs the RAT mapping, Section 5.1) and memoize the
    // resolved block so the matching return needs no hash lookup.
    VmRunResult scratch_stop;
    TranslatedBlock *ret_block = fetchBlock(source_ra, scratch_stop);
    if (ret_block != nullptr)
        _rat.insert(source_ra, source_ra, ret_block);
    return true;
}

template <bool Timed>
VmRunResult
PsrVm::runLoop(uint64_t max_guest_insts)
{
    VmRunResult stop;
    const uint64_t guest_budget = stats.guestInsts + max_guest_insts;

    TranslatedBlock *blk = fetchBlock(state.pc, stop);
    if (blk == nullptr)
        return stop;
    ++stats.dispatches;

    // The timing sink, like the loop variant, is chosen once per run.
    [[maybe_unused]] TimingHarness *const sink = timing;

    // Superblock traces live only on the untimed loop: the timed loop
    // models per-instruction cache behaviour and must keep the
    // baseline dispatch shape. Compiled traces never report control
    // transfers to controlTraceHook and write memory without
    // journaling, so a run with either gate live stays on the plain
    // block loop: it neither enters nor forms traces.
    [[maybe_unused]] const bool traces =
        _jitOn && !controlTraceHook && !_mem.journaling();

    // Block-loop entry state for trace side exits. resume_i is the
    // instruction index the block body starts at (credited stays 0 —
    // traces never fold mid-segment). A side exit's resumed tail runs
    // in the same iteration as the _jit.run call that left the trace,
    // so from_resume skips trace entry and hot counting for the block
    // *after* that tail, the next iteration's. Measured (ROADMAP,
    // trace linking): dropping it forms more traces and more code for
    // no CPU gain, and entering traces there without hot counting
    // forms none more.
    size_t resume_i = 0;
    [[maybe_unused]] bool from_resume = false;

    while (true) {
        if constexpr (!Timed) {
            const bool entered_from_resume = from_resume;
            from_resume = false;
            if (traces && !entered_from_resume) {
                if (SuperTrace *t = blk->strace; t != nullptr) {
                    TraceExit tx;
                    if (!_jit.run(*this, t, guest_budget, stop, tx)) {
                        // Compile declined: the head runs in the
                        // block loop from now on, this entry included.
                        ++_jit.stats.bailouts;
                        blk->strace = nullptr;
                        blk->traceDead = true;
                    } else if (tx.kind == TraceExitKind::Stop) {
                        return stop;
                    } else if (tx.kind == TraceExitKind::DispatchTo) {
                        // Mid-trace capacity flush: re-enter through
                        // the ordinary counting dispatcher, exactly
                        // as the baseline's flush-dirtied chain does.
                        blk = dispatchTo(tx.target, stop);
                        if (blk == nullptr)
                            return stop;
                        if (stats.guestInsts >= guest_budget) {
                            stop.reason = VmStop::StepLimit;
                            stop.stopPc = state.pc;
                            return stop;
                        }
                        continue;
                    } else {
                        blk = tx.blk;
                        resume_i = tx.instIdx;
                        from_resume = true;
                    }
                } else if (!blk->traceDead &&
                           ++blk->hotCount >= kTraceHotThreshold) {
                    _traces.collectRetired();
                    if (_traces.tryForm(blk, isaDescriptor(_isa).spReg,
                                        _cfg.isomeronMode,
                                        _cache.flushes()) == nullptr) {
                        if (++blk->traceFails >= 4)
                            blk->traceDead = true;
                        else
                            blk->hotCount = 0;
                    }
                    // A formed trace starts on the *next* entry; this
                    // iteration still runs the baseline block loop.
                }
            }
        }
        // Execute the block's translated instructions. Each one is a
        // single switch on its translate-time ExecShape, inside the
        // executor; the block-loop exit shapes come back as
        // BlockExit. Guest-inst and data-traffic counters are folded
        // in from the per-inst running totals only at loop exits
        // (credit_through), so the straight-line path does no
        // per-instruction accounting.
        const TInst *const insts = blk->insts.data();
        const size_t n = blk->insts.size();
        const Addr block_pc = state.pc; // VM owns the pc
        size_t i = resume_i;
        resume_i = 0;
        size_t credited = 0; ///< insts already folded into stats
        int taken_exit = -1;
        // The block that runs next. A return or a syscall redirect
        // resolves it inside the loop below, a taken exit after it;
        // nullptr once resolved means the run stops.
        TranslatedBlock *next = nullptr;

        // Fold insts [credited, idx] into stats (cums are inclusive).
        // Called before anything that can observe the counters: exits,
        // syscalls, faults, and trace events (traceTs reads them).
        auto credit_through = [&](size_t idx) {
            const TInst &t = insts[idx];
            uint32_t g0 = 0, r0 = 0, w0 = 0;
            if (credited > 0) {
                const TInst &p = insts[credited - 1];
                g0 = p.guestCum;
                r0 = p.memReadsCum;
                w0 = p.memWritesCum;
            }
            stats.guestInsts += t.guestCum - g0;
            stats.hostInsts += (idx + 1) - credited;
            stats.memReads += t.memReadsCum - r0;
            stats.memWrites += t.memWritesCum - w0;
            credited = idx + 1;
        };

        // The timed loop's data stream comes from the executor's own
        // operand walk, in forEachMemAccess order; the counts were
        // credited from the translate-time totals, which agree.
        auto data = [sink](Addr addr, bool) {
            if constexpr (Timed)
                sink->data(addr);
        };

        while (i < n) {
            const TInst &ti = insts[i];
            if constexpr (Timed)
                sink->fetch(blk->cacheAddr + ti.byteOff);

            const ExecStatus st = executeInstInline(
                ti.shape, ti.mi, state, _mem, &_os, data);
            state.pc = block_pc;
            if (st == ExecStatus::Continue) [[likely]] {
                ++i;
                continue;
            }
            // The instruction that stops straight-line execution is
            // still accounted, like the increment-at-top loop did.
            credit_through(i);
            if (st == ExecStatus::VmExit) {
                taken_exit = ti.exitIdx >= 0
                    ? ti.exitIdx
                    : static_cast<int>(ti.mi.src1.disp);
                break;
            }
            if (st != ExecStatus::BlockExit) [[unlikely]] {
                if (st == ExecStatus::Faulted) {
                    stop.reason = VmStop::Fault;
                    stop.stopPc = blk->srcStart;
                    return stop;
                }
                if (st == ExecStatus::Halted) {
                    stop.reason = VmStop::Halted;
                    stop.stopPc = blk->srcStart;
                    return stop;
                }
                ++i;
                continue;
            }

            if (ti.shape == ExecShape::JccExit) {
                taken_exit = ti.exitIdx;
                break;
            }
            if (ti.shape == ExecShape::RetExit) {
                // Pop the source return address and translate it
                // through the RAT.
                uint32_t sp = state.sp();
                Addr ret_target;
                if (!_mem.tryRead32(sp, ret_target)) {
                    stop.reason = VmStop::Fault;
                    stop.stopPc = blk->srcStart;
                    return stop;
                }
                ++stats.memReads;
                if constexpr (Timed)
                    sink->data(sp);
                state.setSp(sp + kWordSize);
                next = ratReturn(ret_target, stop);
                break;
            }

            // SyscallExit.
            ++stats.syscalls;
            bool keep;
            try {
                keep = _os.handleSyscall(state, _mem);
            } catch (const Memory::Fault &) {
                stop.reason = VmStop::Fault;
                stop.stopPc = blk->srcStart;
                return stop;
            }
            if (!keep) {
                stop.reason = VmStop::Exited;
                stop.stopPc = blk->srcStart;
                return stop;
            }
            if (_os.takeRedirect()) {
                // Non-local transfer (longjmp): the OS rewrote pc to
                // a source address. Dispatch it exactly like any
                // other indirect control transfer — including the SFI
                // check and the security policy (the paper forces
                // migration on a longjmp whose setjmp ran on the
                // other ISA).
                if (controlTraceHook)
                    controlTraceHook(state.pc, 'J');
                if (sfiAdmits(state.pc, stop))
                    next = indirectResolve(state.pc, stop);
                break;
            }
            ++i;
        }
        hipstr_assert(i < n);

        if (taken_exit >= 0) {
            const size_t exit_idx = static_cast<size_t>(taken_exit);
            const Addr owner_src = blk->srcStart;
            // Translating a target below can flush the code cache and
            // destroy the exit's owning block, so everything needed
            // from the exit is copied into locals up front and every
            // pointer taken from it is discarded when the flush
            // generation moves.
            const uint64_t flushes_at_exit = _cache.flushes();
            BlockExit &exit_slot = blk->exits[exit_idx];
            if constexpr (!Timed) {
                // Edge profile for the superblock trace builder. The
                // timed loop never forms traces, so it skips the count.
                ++exit_slot.hitCount;
            }
            const BlockExit &exit = exit_slot;

            // Re-resolve the owner before writing a chain pointer or
            // an IBTC entry: the owner may have been destroyed by a
            // capacity flush.
            auto live_exit = [&]() -> BlockExit * {
                TranslatedBlock *owner = _cache.lookup(owner_src);
                if (owner == nullptr || exit_idx >= owner->exits.size())
                    return nullptr;
                return &owner->exits[exit_idx];
            };

            switch (exit.kind) {
              case BlockExit::Kind::Halt:
                stop.reason = VmStop::Halted;
                stop.stopPc = owner_src;
                return stop;

              case BlockExit::Kind::Branch:
              case BlockExit::Kind::Call: {
                const Addr target = exit.target;
                TranslatedBlock *chained = exit.chained;
                if (exit.kind == BlockExit::Kind::Call) {
                    if (controlTraceHook)
                        controlTraceHook(target, 'C');
                    if (!emitCallLinkage(exit.returnTo, stop))
                        return stop;
                    if (_cache.flushes() != flushes_at_exit) {
                        // The eager return-point translation flushed
                        // the cache: the chain pointer read above
                        // dangles.
                        chained = nullptr;
                    }
                    if (_cfg.isomeronMode) {
                        // The diversifier flips a coin and dispatches
                        // to the chosen program variant — chaining is
                        // impossible.
                        ++stats.diversificationFlips;
                        next = dispatchTo(target, stop);
                        break;
                    }
                } else if (controlTraceHook) {
                    controlTraceHook(target, 'B');
                }
                // Follow the chain, or dispatch and patch it.
                if (chained != nullptr) {
                    ++stats.chainFollows;
                    state.pc = target;
                    next = chained;
                    break;
                }
                next = dispatchTo(target, stop);
                if (next != nullptr && _cfg.superblocks()) {
                    if (BlockExit *live = live_exit())
                        live->chained = next;
                }
                break;
              }

              case BlockExit::Kind::IndirectCall:
              case BlockExit::Kind::IndirectJump: {
                // Read the target from its (possibly relocated) home.
                uint32_t target;
                if (exit.targetOperand.isMem()) {
                    Addr a = state.reg(exit.targetOperand.base) +
                        static_cast<uint32_t>(exit.targetOperand.disp);
                    if (!_mem.tryRead32(a, target)) {
                        stop.reason = VmStop::Fault;
                        stop.stopPc = owner_src;
                        return stop;
                    }
                    ++stats.memReads;
                } else {
                    target = state.reg(exit.targetOperand.reg);
                }
                // Consult the site's inline cache while the exit is
                // still guaranteed live (nothing has translated yet).
                TranslatedBlock *ibtc_hit = exit.ibtc.lookup(target);
                if (controlTraceHook)
                    controlTraceHook(target, 'I');
                if (exit.kind == BlockExit::Kind::IndirectCall) {
                    if (!emitCallLinkage(exit.returnTo, stop))
                        return stop;
                    if (_cache.flushes() != flushes_at_exit) {
                        // Linkage translation flushed the cache; the
                        // cached block pointer is gone with it.
                        ibtc_hit = nullptr;
                    }
                }
                // SFI first, always — a cached target can never point
                // into the cache region, but the check is the security
                // boundary and stays in front unconditionally.
                if (!sfiAdmits(target, stop))
                    return stop;
                if (ibtc_hit != nullptr) {
                    // Inline-cache hit: this (site, target) pair passed
                    // the full Section 3.5 policy before, and the block
                    // survived (no flush since). Same counter semantics
                    // as the lookup-hit dispatch it replaces.
                    state.pc = target;
                    ++stats.dispatches;
                    next = ibtc_hit;
                    break;
                }
                next = indirectResolve(target, stop);
                if (next != nullptr) {
                    if (BlockExit *live = live_exit())
                        live->ibtc.insert(target, next);
                }
                break;
              }
            }
        }

        // The one exit tail: a stopped transfer ends the run, and
        // the budget is checked at every block boundary.
        if (next == nullptr)
            return stop;
        blk = next;
        if (stats.guestInsts >= guest_budget) {
            stop.reason = VmStop::StepLimit;
            stop.stopPc = state.pc;
            return stop;
        }
    }
}

} // namespace hipstr
