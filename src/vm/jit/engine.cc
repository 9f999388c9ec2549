#include "engine.hh"

#include <cstddef>

#include "isa/mem_traffic.hh"
#include "support/logging.hh"
#include "vm/jit/compiler.hh"
#include "vm/psr_vm.hh"

/**
 * C ABI entry points for emitted code: the compiler embeds these
 * addresses as movabs+call. Each returns nonzero to continue the
 * trace, zero to unwind through the epilogue.
 */
extern "C" int
hipstrJitMemProbe(hipstr::jit::JitFrame *f, uint32_t op_idx)
{
    return hipstr::jit::TraceJit::memProbe(f, op_idx);
}

extern "C" int
hipstrJitSegCall(hipstr::jit::JitFrame *f, uint32_t op_idx)
{
    return hipstr::jit::TraceJit::segCall(f, op_idx);
}

namespace hipstr::jit
{

namespace
{

using JitEntry = void (*)(JitFrame *);

const CompileLayout &
layout()
{
    static const CompileLayout l = [] {
        CompileLayout c;
        c.frameStats =
            static_cast<int32_t>(offsetof(JitFrame, stats));
        c.frameMemBase =
            static_cast<int32_t>(offsetof(JitFrame, memBase));
        c.frameRegs = static_cast<int32_t>(offsetof(JitFrame, regs));
        c.frameBudget =
            static_cast<int32_t>(offsetof(JitFrame, guestBudget));
        c.frameExitCode =
            static_cast<int32_t>(offsetof(JitFrame, exitCode));
        c.frameExitOp =
            static_cast<int32_t>(offsetof(JitFrame, exitOp));
        c.frameOpHints =
            static_cast<int32_t>(offsetof(JitFrame, opHints));
        c.flagsOffFromRegs = static_cast<int32_t>(
            offsetof(MachineState, flags) -
            offsetof(MachineState, regs));
        c.statsGuestInsts =
            static_cast<int32_t>(offsetof(VmStats, guestInsts));
        c.statsHostInsts =
            static_cast<int32_t>(offsetof(VmStats, hostInsts));
        c.statsMemReads =
            static_cast<int32_t>(offsetof(VmStats, memReads));
        c.statsMemWrites =
            static_cast<int32_t>(offsetof(VmStats, memWrites));
        c.statsTraceFollows =
            static_cast<int32_t>(offsetof(VmStats, traceFollows));
        c.memProbeHelper =
            reinterpret_cast<const void *>(&hipstrJitMemProbe);
        c.segCallHelper =
            reinterpret_cast<const void *>(&hipstrJitSegCall);
        return c;
    }();
    return l;
}

/** Fold the faulting op's translate-time cumulative counters. */
void
foldFault(PsrVm &vm, const SuperTrace &tr, const TraceOp &op,
          VmRunResult &stop, TraceExit &tx)
{
    vm.stats.guestInsts += op.ti->guestCum;
    vm.stats.hostInsts += op.instIdx + 1;
    vm.stats.memReads += op.ti->memReadsCum;
    vm.stats.memWrites += op.ti->memWritesCum;
    const TraceSegment &sg = tr.segs[op.seg];
    vm.state.pc = sg.guestPc;
    stop.reason = VmStop::Fault;
    stop.stopPc = sg.guestPc;
    tx.kind = TraceExitKind::Stop;
}

/** Resume the baseline block loop at the op's owner instruction. */
void
resumeOwner(PsrVm &vm, const SuperTrace &tr, const TraceOp &op,
            TraceExit &tx)
{
    const TraceSegment &sg = tr.segs[op.seg];
    vm.state.pc = sg.guestPc;
    tx.kind = TraceExitKind::Resume;
    tx.blk = sg.blk;
    tx.instIdx = op.instIdx;
}

} // namespace

bool
TraceJit::hostSupported(const char **reason)
{
#if !defined(__x86_64__)
    *reason = "host is not x86-64";
    return false;
#else
#if defined(__SANITIZE_ADDRESS__)
    *reason = "AddressSanitizer build";
    return false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
    *reason = "AddressSanitizer build";
    return false;
#endif
#endif
#if defined(HIPSTR_UBSAN)
    *reason = "UndefinedBehaviorSanitizer build";
    return false;
#endif
    *reason = nullptr;
    return true;
#endif
}

int
TraceJit::memProbe(JitFrame *f, uint32_t op_idx)
{
    const TraceOp &op = f->trace->ops[op_idx];
    PsrVm &vm = *f->vm;
    Memory &mem = vm.mem();
    Memory::SpanHint &h = f->opHints[op_idx];
    // The compiled body flushed the guest registers into vm.state, so
    // the instruction's own operand walk forms the addresses. Both
    // directions of a read-modify-write probe the op's one hint:
    // permission spans are uniform, so one window verified for both
    // admits the whole access.
    const bool byte = op.ti->mi.op == Op::Movb;
    bool ok = true;
    unsigned accesses = 0;
    forEachMemAccess(op.ti->mi, vm.state, [&](Addr a, bool write) {
        const Perm perm = write ? PermW : PermR;
        ++accesses;
        ok = ok &&
            (byte ? mem.probe8Span(h, a, perm)
                  : mem.probe32Span(h, a, perm));
    });
    if (accesses == 0) {
        hipstr_panic("jit memProbe: op %u is not a memory op",
                     static_cast<unsigned>(op.h));
    }
    if (ok)
        return 1;
    f->exitCode = kJitExitFault;
    f->exitOp = op_idx;
    return 0;
}

int
TraceJit::segCall(JitFrame *f, uint32_t op_idx)
{
    PsrVm &vm = *f->vm;
    SuperTrace *tr = f->trace;
    const TraceOp &op = tr->ops[op_idx];
    vm.stats.guestInsts += op.guestD;
    vm.stats.hostInsts += op.instIdx + 1;
    vm.stats.memReads += op.readsD;
    vm.stats.memWrites += op.writesD;
    // Linkage faults report the owner block's pc, like the block loop
    // (controlTraceHook is gated off before JIT entry).
    vm.state.pc = tr->segs[op.seg].guestPc;
    if (!vm.emitCallLinkage(op.imm2, *f->stop)) {
        f->exit->kind = TraceExitKind::Stop;
        f->exitCode = kJitExitHelper;
        return 0;
    }
    if (vm._cache.flushes() != tr->flushGen) [[unlikely]] {
        // The eager return-point translation capacity-flushed the
        // cache: every block this trace splices is gone. Abandon the
        // trace (reading nothing block-owned) and re-enter through the
        // counting dispatcher, like the block loop's flush-dirtied
        // chain pointer does.
        f->exit->kind = TraceExitKind::DispatchTo;
        f->exit->target = op.imm;
        f->exitCode = kJitExitHelper;
        return 0;
    }
    ++vm.stats.traceFollows;
    vm.state.pc = op.imm;
    if (vm.stats.guestInsts >= f->guestBudget) [[unlikely]] {
        f->stop->reason = VmStop::StepLimit;
        f->stop->stopPc = vm.state.pc;
        f->exit->kind = TraceExitKind::Stop;
        f->exitCode = kJitExitHelper;
        return 0;
    }
    return 1;
}

bool
TraceJit::ensureCompiled(PsrVm &vm, SuperTrace *tr)
{
    if (tr->jit.entry != nullptr &&
        tr->jit.gen == _arena.generation()) [[likely]] {
        return true;
    }
    if (_arenaFailed)
        return false;

    // Safe point by construction: compilation happens only on trace
    // entry from the dispatch loop, never under a live JIT frame, so
    // neither the rewind nor the page flips of an install can pull
    // code out from under an executing trace.
    if (!_arena.valid()) {
        if (!_arena.init(vm.config().jitArenaBytes)) {
            _arenaFailed = true;
            hipstr_warn("trace JIT disabled: executable arena "
                        "allocation failed");
            return false;
        }
    } else if (_rewindPending && _arena.used() != 0) {
        // Every body in the arena belongs to a retired trace: start
        // over at the base, on pages that are already faulted in.
        _arena.reset();
    }
    _rewindPending = false;

    // One emitter and one set of compiler tables per thread: their
    // buffers keep their capacity across compiles, and a VM compiles
    // only on the thread running it.
    thread_local Emitter em;
    thread_local CompileScratch scratch;
    em.clear();
    if (!compileTrace(*tr, layout(), em, scratch))
        return false;

    uint8_t *p = _arena.alloc(em.size());
    if (p == nullptr) {
        // Arena full: generational reclaim. Every compiled trace is
        // stranded (stale stamp) and lazily recompiled on its next
        // entry; nothing is executing out of the arena here.
        _arena.reset();
        p = _arena.alloc(em.size());
        if (p == nullptr)
            return false; // larger than the whole arena
    }
    _arena.install(p, em.code.data(), em.size());

    tr->jit.entry = p;
    tr->jit.gen = _arena.generation();
    ++stats.compiledTraces;
    stats.codeBytes += em.size();
    return true;
}

bool
TraceJit::run(PsrVm &vm, SuperTrace *tr, uint64_t guest_budget,
              VmRunResult &stop, TraceExit &tx)
{
    if (!ensureCompiled(vm, tr))
        return false;

    JitFrame f;
    f.stats = &vm.stats;
    f.memBase = vm._mem.jitBase();
    f.regs = vm.state.regs.data();
    f.guestBudget = guest_budget;
    f.vm = &vm;
    f.trace = tr;
    f.stop = &stop;
    f.exit = &tx;

    // Hand the compiled body its persistent per-op hint table. Slots
    // survive across entries (hint state is semantically invisible);
    // a region change or a cleaned dirty page bumps the layout epoch
    // and empties them.
    const uint64_t epoch = vm._mem.layoutEpoch();
    if (tr->jit.hintEpoch != epoch ||
        tr->jit.hints.size() != tr->ops.size()) {
        tr->jit.hints.assign(tr->ops.size(), Memory::SpanHint{});
        tr->jit.hintEpoch = epoch;
    }
    f.opHints = tr->jit.hints.data();

    ++stats.executions;
    reinterpret_cast<JitEntry>(const_cast<void *>(tr->jit.entry))(&f);

    switch (f.exitCode) {
      case kJitExitHelper:
        // The SegCall helper (stop or abandon) already filled stop
        // and tx.
        return true;
      case kJitExitSide:
        ++stats.sideExits;
        resumeOwner(vm, *tr, tr->ops[f.exitOp], tx);
        return true;
      case kJitExitEnd:
        resumeOwner(vm, *tr, tr->ops[f.exitOp], tx);
        return true;
      case kJitExitFault:
        foldFault(vm, *tr, tr->ops[f.exitOp], stop, tx);
        return true;
      case kJitExitBudget: {
        // Counters were folded inline before the budget test; the
        // stop pc is the segment edge's target, like the block loop.
        const TraceOp &op = tr->ops[f.exitOp];
        vm.state.pc = op.imm;
        stop.reason = VmStop::StepLimit;
        stop.stopPc = op.imm;
        tx.kind = TraceExitKind::Stop;
        return true;
      }
      default:
        hipstr_panic("trace JIT: bad exit code %u", f.exitCode);
    }
}

} // namespace hipstr::jit
