/**
 * @file
 * Inline single-instruction execution engine: the body behind
 * executeInst(). It lives in a header and is forced inline
 * ([[gnu::always_inline]]) into the loops that retire hundreds of
 * millions of instructions: the reference interpreter's runWith() and
 * both variants of the PSR VM's block loop. Without the attribute the
 * compiler's growth limits keep it an out-of-line call in those large
 * loops. Cold callers use the out-of-line executeInst() wrapper from
 * interp.hh, which classifies on the fly; the semantics are one and
 * the same function.
 *
 * The executor is one switch on the instruction's pre-resolved
 * ExecShape (isa/exec_shape.hh): each straight-line shape reads its
 * operands straight from the fields its form fixes. The per-op code
 * (executePerOp) is the tail of that switch for every other form.
 */

#ifndef HIPSTR_ISA_EXEC_INLINE_HH
#define HIPSTR_ISA_EXEC_INLINE_HH

#include "isa/exec_shape.hh"
#include "isa/guest_os.hh"
#include "isa/instruction.hh"
#include "isa/machine_state.hh"
#include "isa/mem_traffic.hh"
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
    Faulted,  ///< memory fault; state.pc still points at the instruction
    /**
     * A block-loop exit shape was reached (a taken JccExit, RetExit,
     * SyscallExit): nothing executed, the block loop takes over. Only
     * the translator stamps those shapes, so the interpreter and
     * executeInst() never see this status.
     */
    BlockExit
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

[[gnu::always_inline]] inline uint32_t
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

/**
 * The per-op executor: the semantics of every op and operand form,
 * dispatched on the op and the operand kinds. It is the tail of
 * executeInstInline's switch (ExecShape::PerOp) and the reference the
 * shaped cases must match.
 */
inline ExecStatus
executePerOp(const MachInst &mi, MachineState &state, Memory &mem,
             GuestOs *os)
{
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

} // namespace interp_detail

/** The data sink of an untimed run: reports compile away. */
struct NoDataSink
{
    void operator()(Addr, bool) const {}
};

namespace interp_detail
{

/** Address of memory operand @p o under the current registers. */
[[gnu::always_inline]] inline Addr
memAddr(const Operand &o, const MachineState &state)
{
    return state.reg(o.base) + static_cast<uint32_t>(o.disp);
}

} // namespace interp_detail

/**
 * Execute one decoded instruction of shape @p shape (see executeInst
 * in interp.hh for the contract). @p shape is classifyExec(mi), or in
 * a block loop the translator's stamp, which may also be a block-loop
 * exit shape.
 *
 * Every data access is reported as sink(addr, is_write) before it is
 * made, from the pre-execution registers and in forEachMemAccess's
 * order, so a timed run takes its data stream from the executor's
 * own operand walk. A shaped form reports all of its accesses before
 * making the first, and the per-op tail reports through
 * forEachMemAccess itself, so a faulting instruction reports exactly
 * what forEachMemAccess would. With a no-op sink the reports compile
 * away. Forced inline so hot loops fold the switch into their own
 * dispatch.
 */
template <typename Sink>
[[gnu::always_inline]] inline ExecStatus
executeInstInline(ExecShape shape, const MachInst &mi,
                  MachineState &state, Memory &mem, GuestOs *os,
                  Sink &&sink)
{
    using namespace interp_detail;
    const Addr next_pc = state.pc + mi.size;
    uint32_t a = 0, b = 0;
    uint8_t byte = 0;
    Addr addr = 0;

#define HIPSTR_NEXT                                                   \
    state.pc = next_pc;                                               \
    return ExecStatus::Continue
#define HIPSTR_LOAD(operand, out)                                     \
    addr = memAddr(operand, state);                                   \
    sink(addr, false);                                                \
    if (!mem.tryRead32(addr, out))                                    \
        return ExecStatus::Faulted

    switch (shape) {
      case ExecShape::MovRR:
        state.setReg(mi.dst.reg, state.reg(mi.src1.reg));
        HIPSTR_NEXT;
      case ExecShape::MovRI:
        state.setReg(mi.dst.reg, static_cast<uint32_t>(mi.src1.disp));
        HIPSTR_NEXT;
      case ExecShape::MovRM:
        HIPSTR_LOAD(mi.src1, a);
        state.setReg(mi.dst.reg, a);
        HIPSTR_NEXT;
      case ExecShape::MovMR:
      case ExecShape::MovMI:
        a = shape == ExecShape::MovMR
            ? state.reg(mi.src1.reg)
            : static_cast<uint32_t>(mi.src1.disp);
        addr = memAddr(mi.dst, state);
        sink(addr, true);
        if (!mem.tryWrite32(addr, a))
            return ExecStatus::Faulted;
        HIPSTR_NEXT;

      case ExecShape::MovbRM:
        addr = memAddr(mi.src1, state);
        sink(addr, false);
        if (!mem.tryRead8(addr, byte))
            return ExecStatus::Faulted;
        state.setReg(mi.dst.reg, byte);
        HIPSTR_NEXT;
      case ExecShape::MovbMR:
      case ExecShape::MovbMI:
        a = shape == ExecShape::MovbMR
            ? state.reg(mi.src1.reg)
            : static_cast<uint32_t>(mi.src1.disp);
        addr = memAddr(mi.dst, state);
        sink(addr, true);
        if (!mem.tryWrite8(addr, static_cast<uint8_t>(a)))
            return ExecStatus::Faulted;
        HIPSTR_NEXT;

      case ExecShape::Lea:
        state.setReg(mi.dst.reg, memAddr(mi.src1, state));
        HIPSTR_NEXT;
      case ExecShape::MovHi:
        state.setReg(mi.dst.reg,
                     (state.reg(mi.dst.reg) & 0xffffu) |
                         (static_cast<uint32_t>(mi.src1.disp) << 16));
        HIPSTR_NEXT;

#define HIPSTR_FLAG_SHAPES(Name, setFlags)                            \
      case ExecShape::Name##RR:                                       \
        setFlags(state.reg(mi.src1.reg), state.reg(mi.src2.reg),      \
                 state.flags);                                        \
        HIPSTR_NEXT;                                                  \
      case ExecShape::Name##RI:                                       \
        setFlags(state.reg(mi.src1.reg),                              \
                 static_cast<uint32_t>(mi.src2.disp), state.flags);   \
        HIPSTR_NEXT;                                                  \
      case ExecShape::Name##RM:                                       \
        HIPSTR_LOAD(mi.src2, b);                                      \
        setFlags(state.reg(mi.src1.reg), b, state.flags);             \
        HIPSTR_NEXT;                                                  \
      case ExecShape::Name##MR:                                       \
        HIPSTR_LOAD(mi.src1, a);                                      \
        setFlags(a, state.reg(mi.src2.reg), state.flags);             \
        HIPSTR_NEXT;                                                  \
      case ExecShape::Name##MI:                                       \
        HIPSTR_LOAD(mi.src1, a);                                      \
        setFlags(a, static_cast<uint32_t>(mi.src2.disp), state.flags); \
        HIPSTR_NEXT;
      HIPSTR_FLAG_SHAPES(Cmp, setCmpFlags)
      HIPSTR_FLAG_SHAPES(Test, setTestFlags)
#undef HIPSTR_FLAG_SHAPES

      case ExecShape::PushR:
      case ExecShape::PushI: {
        a = shape == ExecShape::PushR
            ? state.reg(mi.src1.reg)
            : static_cast<uint32_t>(mi.src1.disp);
        const uint32_t sp = state.sp() - kWordSize;
        sink(sp, true);
        if (!mem.tryWrite32(sp, a))
            return ExecStatus::Faulted;
        state.setSp(sp);
        HIPSTR_NEXT;
      }
      case ExecShape::PopR: {
        const uint32_t sp = state.sp();
        sink(sp, false);
        if (!mem.tryRead32(sp, a))
            return ExecStatus::Faulted;
        state.setSp(sp + kWordSize);
        state.setReg(mi.dst.reg, a);
        HIPSTR_NEXT;
      }

      // The ALU family: one case per op and form, each with the op's
      // expression inlined (aluCompute on a constant op folds away).
      // The slot forms (MR/MI) read and write the one memory word.
#define HIPSTR_ALU_SHAPES(o)                                          \
      case ExecShape::o##RR:                                          \
        state.setReg(mi.dst.reg,                                      \
                     aluCompute(Op::o, state.reg(mi.src1.reg),        \
                                state.reg(mi.src2.reg)));             \
        HIPSTR_NEXT;                                                  \
      case ExecShape::o##RI:                                          \
        state.setReg(mi.dst.reg,                                      \
                     aluCompute(Op::o, state.reg(mi.src1.reg),        \
                                static_cast<uint32_t>(mi.src2.disp))); \
        HIPSTR_NEXT;                                                  \
      case ExecShape::o##RM:                                          \
        HIPSTR_LOAD(mi.src2, b);                                      \
        state.setReg(mi.dst.reg,                                      \
                     aluCompute(Op::o, state.reg(mi.src1.reg), b));   \
        HIPSTR_NEXT;                                                  \
      case ExecShape::o##MR:                                          \
      case ExecShape::o##MI:                                          \
        b = shape == ExecShape::o##MR                                 \
            ? state.reg(mi.src2.reg)                                  \
            : static_cast<uint32_t>(mi.src2.disp);                    \
        addr = memAddr(mi.dst, state);                                \
        sink(addr, false);                                            \
        sink(addr, true);                                             \
        if (!mem.tryRead32(addr, a) ||                                \
            !mem.tryWrite32(addr, aluCompute(Op::o, a, b)))           \
            return ExecStatus::Faulted;                               \
        HIPSTR_NEXT;
      HIPSTR_ALU_OPS(HIPSTR_ALU_SHAPES)
#undef HIPSTR_ALU_SHAPES

      case ExecShape::Nop:
        HIPSTR_NEXT;
      case ExecShape::Jmp:
        state.pc = mi.target;
        return ExecStatus::Continue;
      case ExecShape::Jcc:
        state.pc = condHolds(mi.cond, state.flags) ? mi.target
                                                   : next_pc;
        return ExecStatus::Continue;
      case ExecShape::Call:
        if (state.isa == IsaKind::Cisc) {
            const uint32_t sp = state.sp() - kWordSize;
            sink(sp, true);
            if (!mem.tryWrite32(sp, next_pc))
                return ExecStatus::Faulted;
            state.setSp(sp);
        } else {
            state.setReg(risc::LR, next_pc);
        }
        state.pc = mi.target;
        return ExecStatus::Continue;
      case ExecShape::Ret: {
        const uint32_t sp = state.sp();
        sink(sp, false);
        if (!mem.tryRead32(sp, a))
            return ExecStatus::Faulted;
        state.setSp(sp + kWordSize);
        state.pc = a;
        return ExecStatus::Continue;
      }
      case ExecShape::VmExit:
        return ExecStatus::VmExit;

      case ExecShape::PerOp:
        forEachMemAccess(mi, state, sink);
        return executePerOp(mi, state, mem, os);

      case ExecShape::JccExit:
        if (!condHolds(mi.cond, state.flags)) {
            HIPSTR_NEXT;
        }
        return ExecStatus::BlockExit;
      case ExecShape::RetExit:
      case ExecShape::SyscallExit:
        return ExecStatus::BlockExit;

      case ExecShape::NumShapes:
        break;
    }
#undef HIPSTR_LOAD
#undef HIPSTR_NEXT
    hipstr_panic("executeInst: invalid shape %u",
                 static_cast<unsigned>(shape));
}

} // namespace hipstr

#endif // HIPSTR_ISA_EXEC_INLINE_HH
