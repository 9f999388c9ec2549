#include "interp.hh"

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
    if (_runEntry != nullptr)
        return _runEntry(*this, _runCtx, maxInsts);
    if (traceHook)
        return runWith(maxInsts, [this](const MachInst &mi, Addr pc) {
            traceHook(mi, pc);
        });
    return runWith(maxInsts, [](const MachInst &, Addr) {});
}

} // namespace hipstr
