/**
 * @file
 * ISA-neutral instruction model.
 *
 * Both guest ISAs decode into the same @c MachInst record so that the
 * interpreter, the PSR translator, and the gadget classifier share one
 * semantic core. ISA-specific constraints (which operand kinds are legal
 * where) are enforced by the per-ISA assemblers in
 * encoding_risc.cc / encoding_cisc.cc.
 */

#ifndef HIPSTR_ISA_INSTRUCTION_HH
#define HIPSTR_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>

#include "isa/isa.hh"

namespace hipstr
{

/** Semantic opcodes shared by both ISAs. */
enum class Op : uint8_t
{
    Nop,
    Mov,     ///< dst <- src1 (generalizes load/store/move/load-imm)
    Movb,    ///< byte variant: reg <- zext(mem8[..]) or mem8[..] <- low8
    Lea,     ///< dst(reg) <- effective address of src1(mem)
    MovHi,   ///< dst(reg) <- (dst & 0xffff) | (imm16 << 16); Risc only
    Add, Sub, And, Or, Xor, Shl, Shr, Sar, Mul, Divu,
    Cmp,     ///< set flags from src1 - src2
    Test,    ///< set flags from src1 & src2
    Jmp,     ///< unconditional pc-relative branch
    Jcc,     ///< conditional branch on @c cond
    JmpInd,  ///< pc <- src1(reg)
    Call,    ///< direct call; Cisc pushes return addr, Risc sets LR
    CallInd, ///< indirect call through src1(reg)
    Ret,     ///< pc <- mem[sp]; sp += 4 (Risc POPRET has identical
             ///< semantics; the fused epilogue keeps return addresses
             ///< stack-resident on both ISAs)
    Push,    ///< Cisc only: sp -= 4; mem[sp] <- src1
    Pop,     ///< Cisc only: dst <- mem[sp]; sp += 4
    Syscall, ///< system call; number in retReg, args in argRegs[1..]
    Halt,    ///< stop the machine
    VmExit   ///< translator-only pseudo-op: trap to the dispatcher with
             ///< exit descriptor index in src1(imm)
};

constexpr unsigned kNumOps = static_cast<unsigned>(Op::VmExit) + 1;

const char *opName(Op op);

/** True for ops that end a basic block. */
bool isBlockTerminator(Op op);

/** An instruction operand. */
struct Operand
{
    enum class Kind : uint8_t
    {
        None,
        Reg,  ///< architectural register
        Imm,  ///< immediate constant
        Mem   ///< memory at [base + disp]
    };

    Kind kind = Kind::None;
    Reg reg = kNoReg;    ///< Reg: the register; Mem: unused
    Reg base = kNoReg;   ///< Mem: base register
    int32_t disp = 0;    ///< Mem: displacement; Imm: the immediate

    static Operand none() { return Operand{}; }

    static Operand
    makeReg(Reg r)
    {
        Operand o;
        o.kind = Kind::Reg;
        o.reg = r;
        return o;
    }

    static Operand
    makeImm(int32_t v)
    {
        Operand o;
        o.kind = Kind::Imm;
        o.disp = v;
        return o;
    }

    static Operand
    makeMem(Reg base, int32_t disp)
    {
        Operand o;
        o.kind = Kind::Mem;
        o.base = base;
        o.disp = disp;
        return o;
    }

    bool isReg() const { return kind == Kind::Reg; }
    bool isImm() const { return kind == Kind::Imm; }
    bool isMem() const { return kind == Kind::Mem; }

    bool operator==(const Operand &o) const
    {
        if (kind != o.kind)
            return false;
        switch (kind) {
          case Kind::None: return true;
          case Kind::Reg: return reg == o.reg;
          case Kind::Imm: return disp == o.disp;
          case Kind::Mem: return base == o.base && disp == o.disp;
        }
        return false;
    }
};

/**
 * A decoded machine instruction. ALU ops compute dst = src1 OP src2;
 * on Cisc the encodings force dst == src1 (two-address form), which the
 * decoders and assemblers maintain.
 */
struct MachInst
{
    Op op = Op::Nop;
    Cond cond = Cond::Eq;   ///< only meaningful for Jcc
    Operand dst;
    Operand src1;
    Operand src2;
    /**
     * Absolute guest target for Jmp/Jcc/Call after decode; during
     * compilation it temporarily holds a label id which the emitter
     * fixes up at layout time.
     */
    Addr target = 0;
    /** Encoded size in bytes (filled by the decoder/assembler). */
    uint8_t size = 0;

    bool isTerminator() const { return isBlockTerminator(op); }

    /** Convenience constructors. @{ */
    static MachInst nop();
    static MachInst movRR(Reg dst, Reg src);
    static MachInst movRI(Reg dst, int32_t imm);
    static MachInst movHi(Reg dst, int32_t imm16);
    static MachInst load(Reg dst, Reg base, int32_t disp);
    static MachInst store(Reg base, int32_t disp, Reg src);
    static MachInst loadByte(Reg dst, Reg base, int32_t disp);
    static MachInst storeByte(Reg base, int32_t disp, Reg src);
    static MachInst storeImm(Reg base, int32_t disp, int32_t imm);
    static MachInst alu(Op op, Reg dst, Reg src1, Operand src2);
    static MachInst lea(Reg dst, Reg base, int32_t disp);
    static MachInst cmp(Operand a, Operand b);
    static MachInst test(Operand a, Operand b);
    static MachInst jmp(Addr target);
    static MachInst jcc(Cond c, Addr target);
    static MachInst jmpInd(Reg r);
    static MachInst call(Addr target);
    static MachInst callInd(Reg r);
    static MachInst ret();
    static MachInst push(Operand src);
    static MachInst pop(Reg dst);
    static MachInst syscall();
    static MachInst halt();
    static MachInst vmExit(uint32_t index);
    /** @} */
};

/** Render an operand in disassembly syntax. */
std::string operandToString(const Operand &o, const IsaDescriptor &desc);

/** Render a full instruction, e.g. "add ax, [sp+0x80c]". */
std::string instToString(const MachInst &mi, IsaKind isa);

} // namespace hipstr

#endif // HIPSTR_ISA_INSTRUCTION_HH
