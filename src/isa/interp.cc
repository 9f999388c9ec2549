#include "interp.hh"

#include "isa/codec.hh"
#include "support/logging.hh"

namespace hipstr
{

ExecStatus
executeInst(const MachInst &mi, MachineState &state, Memory &mem,
            GuestOs *os)
{
    return executeInstInline(mi, state, mem, os);
}

const char *
stopReasonName(StopReason r)
{
    switch (r) {
      case StopReason::Halted: return "halted";
      case StopReason::Exited: return "exited";
      case StopReason::Fault: return "fault";
      case StopReason::BadInst: return "bad-instruction";
      case StopReason::StepLimit: return "step-limit";
      case StopReason::VmExitHit: return "vmexit-outside-vm";
    }
    return "?";
}

Interpreter::Interpreter(IsaKind isa, Memory &mem, GuestOs &os)
    : state(isa), _mem(mem), _os(os)
{
    flushDecoded();
}

void
Interpreter::flushDecoded()
{
    for (Decoded &line : _decoded)
        line.pc = kNoPc;
    _decodedEpoch = _mem.codeEpoch();
    _decodedIsa = state.isa;
}

RunResult
Interpreter::run(uint64_t maxInsts)
{
    RunResult res;
    for (uint64_t i = 0; i < maxInsts; ++i) {
        // Checked per instruction: syscalls and the trace hook may
        // change code or the ISA between two steps.
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
        }
        const MachInst &mi = line.mi;
        Addr pc_before = state.pc;
        // Pre-execution hook: operand base registers still hold their
        // input values, so the timing model can compute data
        // addresses correctly.
        if (traceHook)
            traceHook(mi, pc_before);
        ExecStatus st = executeInstInline(mi, state, _mem, &_os);
        if (st == ExecStatus::Faulted) {
            res.reason = StopReason::Fault;
            res.stopPc = state.pc;
            return res;
        }
        ++res.instsExecuted;
        switch (st) {
          case ExecStatus::Continue:
            break;
          case ExecStatus::Halted:
            res.reason = StopReason::Halted;
            res.stopPc = pc_before;
            return res;
          case ExecStatus::Exited:
            res.reason = StopReason::Exited;
            res.stopPc = pc_before;
            return res;
          case ExecStatus::VmExit:
            res.reason = StopReason::VmExitHit;
            res.stopPc = pc_before;
            return res;
          case ExecStatus::Faulted:
            break; // handled above
        }
    }
    res.reason = StopReason::StepLimit;
    res.stopPc = state.pc;
    return res;
}

} // namespace hipstr
