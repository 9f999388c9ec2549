/**
 * @file
 * Reference interpreter ("native core") and the shared instruction
 * semantics used by the PSR virtual machines and the gadget sandbox.
 */

#ifndef HIPSTR_ISA_INTERP_HH
#define HIPSTR_ISA_INTERP_HH

#include <array>
#include <cstdint>
#include <functional>

#include "isa/codec.hh"
#include "isa/exec_inline.hh"
#include "isa/guest_os.hh"
#include "isa/instruction.hh"
#include "isa/machine_state.hh"
#include "isa/memory.hh"

namespace hipstr
{

/**
 * Execute one decoded instruction. @p state.pc must point at the
 * instruction; on return it points at the successor (fall-through or
 * branch target). Control transfers use the plain hardware semantics —
 * Ret pops the return address from the top of stack. The PSR VM layers
 * its randomized-return handling above this function.
 *
 * Memory faults surface as ExecStatus::Faulted — a status return,
 * not an exception, so the per-instruction hot path of both the
 * interpreter and the PSR VM carries no try/catch setup. On a fault
 * no architectural state has been modified beyond what the hardware
 * would have committed before the faulting access (see the per-op
 * ordering in the implementation).
 *
 * @param os may be null when executing in a sandbox (Syscall then
 *           behaves as Exited so gadget chains terminate).
 *
 * This is the out-of-line wrapper around executeInstInline
 * (isa/exec_inline.hh): it classifies @p mi on the fly. Hot loops
 * stamp the shape once where they cache the instruction and call the
 * inline form directly.
 */
ExecStatus executeInst(const MachInst &mi, MachineState &state,
                       Memory &mem, GuestOs *os);

/** Why an interpreter run stopped. */
enum class StopReason
{
    Halted,    ///< guest executed Halt
    Exited,    ///< guest called Exit/Execve
    Fault,     ///< memory permission/bounds fault — a guest crash
    BadInst,   ///< undecodable bytes or misaligned pc — a guest crash
    StepLimit, ///< maxInsts reached
    VmExitHit  ///< VmExit encountered outside a VM — a guest crash
};

const char *stopReasonName(StopReason r);

/** Result of an interpreter run. */
struct RunResult
{
    StopReason reason = StopReason::StepLimit;
    uint64_t instsExecuted = 0;
    Addr stopPc = 0; ///< pc at the stop point (fault pc for crashes)

    bool crashed() const
    {
        return reason == StopReason::Fault ||
            reason == StopReason::BadInst ||
            reason == StopReason::VmExitHit;
    }
};

/**
 * The reference core: decodes and executes guest code directly from
 * memory with no translation or randomization. Native-performance
 * baselines and differential tests run on this.
 *
 * Each pc is decoded once: a direct-mapped cache of decoded
 * instructions, tagged by pc, sits in front of decodeInst, and each
 * line carries the instruction's ExecShape, classified at fill. The
 * whole cache is dropped whenever Memory::codeEpoch() or state.isa
 * differs from the values it was filled under, so a hit always
 * equals what a fresh decode would return. Failed decodes are never
 * cached.
 */
class Interpreter
{
  public:
    Interpreter(IsaKind isa, Memory &mem, GuestOs &os);

    /** Architectural state, publicly accessible for test setup. */
    MachineState state;

    /**
     * Run until a stop condition or @p maxInsts instructions. The
     * loop is chosen once per call: the installed run entry if there
     * is one, else the traceHook loop if the hook is set, else the
     * plain loop.
     */
    RunResult run(uint64_t maxInsts);

    /**
     * Optional per-instruction observer for trace-based tests. Called
     * *before* each instruction executes, while its operand base
     * registers still hold their input values, so data addresses can
     * be formed from @c state. An installed run entry takes precedence.
     */
    std::function<void(const MachInst &, Addr pc)> traceHook;

    /**
     * A replacement for run()'s loop, installed by an observer that
     * wants its per-instruction work inlined (TimingHarness): it is
     * called as fn(*this, ctx, maxInsts) and typically returns
     * runWith() instantiated with its own hook. Pass nullptr to
     * remove it.
     */
    using RunEntry = RunResult (*)(Interpreter &, void *ctx,
                                   uint64_t maxInsts);
    void
    setRunEntry(RunEntry fn, void *ctx)
    {
        _runEntry = fn;
        _runCtx = ctx;
    }

    /**
     * The interpreter loop, with @p hook(mi, pc) called before each
     * instruction executes (the traceHook contract) and @p sink(addr,
     * is_write) called by the executor for each data access, in
     * forEachMemAccess's order (see executeInstInline). Every run()
     * variant is an instantiation of this template.
     */
    template <typename Hook, typename Sink = NoDataSink>
    RunResult runWith(uint64_t maxInsts, Hook &&hook,
                      Sink &&sink = Sink{});

  private:
    /** One cache line: the decode of the instruction at @c pc. */
    struct Decoded
    {
        uint64_t pc; ///< wider than Addr so kNoPc matches no pc
        MachInst mi;
        ExecShape shape; ///< classifyExec(mi)
    };

    /**
     * Lines in the decode cache. The table lives inside the object,
     * not in a separate heap block (see DESIGN.md, "Decode once").
     */
    static constexpr size_t kDecodedLines = 4096;
    /** Tag of an empty line. */
    static constexpr uint64_t kNoPc = ~uint64_t(0);

    /** Empty every line and restamp with the current epoch and ISA. */
    void flushDecoded();

    Memory &_mem;
    GuestOs &_os;
    RunEntry _runEntry = nullptr;
    void *_runCtx = nullptr;
    uint64_t _decodedEpoch = 0;
    IsaKind _decodedIsa = IsaKind::Cisc;
    std::array<Decoded, kDecodedLines> _decoded;
};

template <typename Hook, typename Sink>
RunResult
Interpreter::runWith(uint64_t maxInsts, Hook &&hook, Sink &&sink)
{
    RunResult res;
    for (uint64_t i = 0; i < maxInsts; ++i) {
        // Checked per instruction: syscalls and the hook may change
        // code or the ISA between two steps.
        if (_mem.codeEpoch() != _decodedEpoch ||
            state.isa != _decodedIsa)
            flushDecoded();
        Decoded &line = _decoded[state.pc % kDecodedLines];
        if (line.pc != state.pc) {
            if (!decodeInst(state.isa, _mem, state.pc, line.mi)) {
                line.pc = kNoPc;
                res.reason = StopReason::BadInst;
                res.stopPc = state.pc;
                return res;
            }
            line.pc = state.pc;
            line.shape = classifyExec(line.mi);
        }
        const MachInst &mi = line.mi;
        const Addr pc_before = state.pc;
        hook(mi, pc_before);
        ExecStatus st =
            executeInstInline(line.shape, mi, state, _mem, &_os, sink);
        if (st == ExecStatus::Continue) [[likely]] {
            ++res.instsExecuted;
            continue;
        }
        if (st == ExecStatus::Faulted) {
            res.reason = StopReason::Fault;
            res.stopPc = state.pc;
            return res;
        }
        ++res.instsExecuted;
        res.stopPc = pc_before;
        switch (st) {
          case ExecStatus::Halted:
            res.reason = StopReason::Halted;
            return res;
          case ExecStatus::Exited:
            res.reason = StopReason::Exited;
            return res;
          case ExecStatus::VmExit:
            res.reason = StopReason::VmExitHit;
            return res;
          case ExecStatus::Continue:
          case ExecStatus::Faulted:
          case ExecStatus::BlockExit: // no exit shape is ever stamped
            break; // handled above
        }
    }
    res.reason = StopReason::StepLimit;
    res.stopPc = state.pc;
    return res;
}

} // namespace hipstr

#endif // HIPSTR_ISA_INTERP_HH
