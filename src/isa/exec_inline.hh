/**
 * @file
 * Inline single-instruction execution engine: the body behind
 * executeInst(). It lives in a header and is forced inline
 * ([[gnu::always_inline]]) into the loops that retire hundreds of
 * millions of instructions: the reference interpreter's runWith() and
 * both variants of the PSR VM's block loop. Without the attribute the
 * compiler's growth limits keep it an out-of-line call in those large
 * loops. Cold callers use the out-of-line executeInst() wrapper from
 * interp.hh; the semantics are one and the same function.
 */

#ifndef HIPSTR_ISA_EXEC_INLINE_HH
#define HIPSTR_ISA_EXEC_INLINE_HH

#include "isa/guest_os.hh"
#include "isa/instruction.hh"
#include "isa/machine_state.hh"
#include "isa/memory.hh"
#include "support/logging.hh"

namespace hipstr
{

/** Outcome of executing a single instruction. */
enum class ExecStatus
{
    Continue, ///< state.pc advanced; keep going
    Halted,   ///< Halt executed
    Exited,   ///< guest called Exit or Execve
    VmExit,   ///< VmExit pseudo-op reached (only meaningful inside a VM)
    Faulted   ///< memory fault; state.pc still points at the instruction
};

namespace interp_detail
{

/**
 * Operand access with fault signalling: on an illegal memory access
 * @p fault is set (and reads return 0). Callers check the flag before
 * committing dependent state so the fault ordering matches what the
 * old throwing variants produced.
 */
[[gnu::always_inline]] inline uint32_t
readOperand(const Operand &o, const MachineState &state,
            const Memory &mem, bool &fault)
{
    switch (o.kind) {
      case Operand::Kind::Reg:
        return state.reg(o.reg);
      case Operand::Kind::Imm:
        return static_cast<uint32_t>(o.disp);
      case Operand::Kind::Mem: {
        uint32_t v = 0;
        if (!mem.tryRead32(state.reg(o.base) +
                               static_cast<uint32_t>(o.disp),
                           v))
            fault = true;
        return v;
      }
      case Operand::Kind::None:
        break;
    }
    hipstr_panic("readOperand: invalid operand kind");
}

[[gnu::always_inline]] inline void
writeOperand(const Operand &o, uint32_t v, MachineState &state,
             Memory &mem, bool &fault)
{
    switch (o.kind) {
      case Operand::Kind::Reg:
        state.setReg(o.reg, v);
        return;
      case Operand::Kind::Mem:
        if (!mem.tryWrite32(state.reg(o.base) +
                                static_cast<uint32_t>(o.disp),
                            v))
            fault = true;
        return;
      default:
        hipstr_panic("writeOperand: invalid operand kind");
    }
}

inline void
setCmpFlags(uint32_t a, uint32_t b, Flags &f)
{
    uint32_t r = a - b;
    f.zf = (r == 0);
    f.sf = (static_cast<int32_t>(r) < 0);
    f.cf = (a < b);
    // Signed overflow of a - b.
    f.of = (((a ^ b) & (a ^ r)) >> 31) != 0;
}

inline void
setTestFlags(uint32_t a, uint32_t b, Flags &f)
{
    uint32_t r = a & b;
    f.zf = (r == 0);
    f.sf = (static_cast<int32_t>(r) < 0);
    f.cf = false;
    f.of = false;
}

inline uint32_t
aluCompute(Op op, uint32_t a, uint32_t b)
{
    switch (op) {
      case Op::Add: return a + b;
      case Op::Sub: return a - b;
      case Op::And: return a & b;
      case Op::Or:  return a | b;
      case Op::Xor: return a ^ b;
      case Op::Shl: return a << (b & 31);
      case Op::Shr: return a >> (b & 31);
      case Op::Sar:
        return static_cast<uint32_t>(static_cast<int32_t>(a) >>
                                     (b & 31));
      case Op::Mul: return a * b;
      case Op::Divu:
        // Division by zero yields 0 rather than faulting; this keeps
        // gadget execution total without an extra trap class.
        return b == 0 ? 0 : a / b;
      default:
        hipstr_panic("aluCompute: %s is not an ALU op", opName(op));
    }
}

} // namespace interp_detail

/**
 * Execute one decoded instruction (see executeInst in interp.hh for
 * the contract). Forced inline so hot loops fold it into their
 * dispatch.
 */
[[gnu::always_inline]] inline ExecStatus
executeInstInline(const MachInst &mi, MachineState &state, Memory &mem,
                  GuestOs *os)
{
    using namespace interp_detail;
    const Addr next_pc = state.pc + mi.size;
    bool fault = false;

    switch (mi.op) {
      case Op::Nop:
        state.pc = next_pc;
        return ExecStatus::Continue;

      case Op::Halt:
        return ExecStatus::Halted;

      case Op::Mov: {
        uint32_t v = readOperand(mi.src1, state, mem, fault);
        if (fault)
            return ExecStatus::Faulted;
        writeOperand(mi.dst, v, state, mem, fault);
        if (fault)
            return ExecStatus::Faulted;
        state.pc = next_pc;
        return ExecStatus::Continue;
      }

      case Op::Movb:
        // Byte-sized memory access: loads zero-extend, stores write
        // the low byte. Exactly one side is a memory operand.
        if (mi.src1.isMem()) {
            uint8_t b = 0;
            if (!mem.tryRead8(state.reg(mi.src1.base) +
                                  static_cast<uint32_t>(mi.src1.disp),
                              b))
                return ExecStatus::Faulted;
            state.setReg(mi.dst.reg, b);
        } else {
            uint32_t v = readOperand(mi.src1, state, mem, fault);
            if (fault)
                return ExecStatus::Faulted;
            if (!mem.tryWrite8(state.reg(mi.dst.base) +
                                   static_cast<uint32_t>(mi.dst.disp),
                               static_cast<uint8_t>(v)))
                return ExecStatus::Faulted;
        }
        state.pc = next_pc;
        return ExecStatus::Continue;

      case Op::MovHi: {
        uint32_t lo = state.reg(mi.dst.reg) & 0xffffu;
        state.setReg(mi.dst.reg,
                     lo | (static_cast<uint32_t>(mi.src1.disp) << 16));
        state.pc = next_pc;
        return ExecStatus::Continue;
      }

      case Op::Lea:
        state.setReg(mi.dst.reg,
                     state.reg(mi.src1.base) +
                         static_cast<uint32_t>(mi.src1.disp));
        state.pc = next_pc;
        return ExecStatus::Continue;

      case Op::Add:
      case Op::Sub:
      case Op::And:
      case Op::Or:
      case Op::Xor:
      case Op::Shl:
      case Op::Shr:
      case Op::Sar:
      case Op::Mul:
      case Op::Divu: {
        uint32_t a = readOperand(mi.src1, state, mem, fault);
        uint32_t b = readOperand(mi.src2, state, mem, fault);
        if (fault)
            return ExecStatus::Faulted;
        writeOperand(mi.dst, aluCompute(mi.op, a, b), state, mem,
                     fault);
        if (fault)
            return ExecStatus::Faulted;
        state.pc = next_pc;
        return ExecStatus::Continue;
      }

      case Op::Cmp: {
        uint32_t a = readOperand(mi.src1, state, mem, fault);
        uint32_t b = readOperand(mi.src2, state, mem, fault);
        if (fault)
            return ExecStatus::Faulted;
        setCmpFlags(a, b, state.flags);
        state.pc = next_pc;
        return ExecStatus::Continue;
      }

      case Op::Test: {
        uint32_t a = readOperand(mi.src1, state, mem, fault);
        uint32_t b = readOperand(mi.src2, state, mem, fault);
        if (fault)
            return ExecStatus::Faulted;
        setTestFlags(a, b, state.flags);
        state.pc = next_pc;
        return ExecStatus::Continue;
      }

      case Op::Jmp:
        state.pc = mi.target;
        return ExecStatus::Continue;

      case Op::Jcc:
        state.pc = condHolds(mi.cond, state.flags) ? mi.target
                                                   : next_pc;
        return ExecStatus::Continue;

      case Op::JmpInd: {
        Addr target = readOperand(mi.src1, state, mem, fault);
        if (fault)
            return ExecStatus::Faulted;
        state.pc = target;
        return ExecStatus::Continue;
      }

      case Op::Call:
      case Op::CallInd: {
        Addr target = (mi.op == Op::Call)
            ? mi.target
            : readOperand(mi.src1, state, mem, fault);
        if (fault)
            return ExecStatus::Faulted;
        if (state.isa == IsaKind::Cisc) {
            uint32_t sp = state.sp() - kWordSize;
            if (!mem.tryWrite32(sp, next_pc))
                return ExecStatus::Faulted;
            state.setSp(sp);
        } else {
            state.setReg(isaDescriptor(state.isa).lrReg, next_pc);
        }
        state.pc = target;
        return ExecStatus::Continue;
      }

      case Op::Ret: {
        uint32_t sp = state.sp();
        uint32_t ra = 0;
        if (!mem.tryRead32(sp, ra))
            return ExecStatus::Faulted;
        state.setSp(sp + kWordSize);
        state.pc = ra;
        return ExecStatus::Continue;
      }

      case Op::Push: {
        uint32_t v = readOperand(mi.src1, state, mem, fault);
        if (fault)
            return ExecStatus::Faulted;
        uint32_t sp = state.sp() - kWordSize;
        if (!mem.tryWrite32(sp, v))
            return ExecStatus::Faulted;
        state.setSp(sp);
        state.pc = next_pc;
        return ExecStatus::Continue;
      }

      case Op::Pop: {
        uint32_t sp = state.sp();
        uint32_t v = 0;
        if (!mem.tryRead32(sp, v))
            return ExecStatus::Faulted;
        state.setSp(sp + kWordSize);
        writeOperand(mi.dst, v, state, mem, fault);
        if (fault)
            return ExecStatus::Faulted;
        state.pc = next_pc;
        return ExecStatus::Continue;
      }

      case Op::Syscall: {
        if (os == nullptr)
            return ExecStatus::Exited;
        // Syscall emulation still uses the throwing memory API
        // internally (string copies, buffer walks); contain it here so
        // executeInst as a whole never throws.
        bool keep_running;
        try {
            keep_running = os->handleSyscall(state, mem);
        } catch (const Memory::Fault &) {
            return ExecStatus::Faulted;
        }
        if (!os->takeRedirect())
            state.pc = next_pc;
        return keep_running ? ExecStatus::Continue : ExecStatus::Exited;
      }

      case Op::VmExit:
        return ExecStatus::VmExit;
    }
    hipstr_panic("executeInst: unhandled op");
}

} // namespace hipstr

#endif // HIPSTR_ISA_EXEC_INLINE_HH
