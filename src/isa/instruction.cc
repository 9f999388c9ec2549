#include "instruction.hh"

#include <cstdio>

#include "support/logging.hh"

namespace hipstr
{

const char *
opName(Op op)
{
    switch (op) {
      case Op::Nop: return "nop";
      case Op::Mov: return "mov";
      case Op::Movb: return "movb";
      case Op::Lea: return "lea";
      case Op::MovHi: return "movhi";
      case Op::Add: return "add";
      case Op::Sub: return "sub";
      case Op::And: return "and";
      case Op::Or: return "or";
      case Op::Xor: return "xor";
      case Op::Shl: return "shl";
      case Op::Shr: return "shr";
      case Op::Sar: return "sar";
      case Op::Mul: return "mul";
      case Op::Divu: return "divu";
      case Op::Cmp: return "cmp";
      case Op::Test: return "test";
      case Op::Jmp: return "jmp";
      case Op::Jcc: return "jcc";
      case Op::JmpInd: return "jmpind";
      case Op::Call: return "call";
      case Op::CallInd: return "callind";
      case Op::Ret: return "ret";
      case Op::Push: return "push";
      case Op::Pop: return "pop";
      case Op::Syscall: return "syscall";
      case Op::Halt: return "halt";
      case Op::VmExit: return "vmexit";
    }
    return "?";
}

bool
isBlockTerminator(Op op)
{
    switch (op) {
      case Op::Jmp:
      case Op::Jcc:
      case Op::JmpInd:
      case Op::Call:
      case Op::CallInd:
      case Op::Ret:
      case Op::Halt:
      case Op::VmExit:
        return true;
      default:
        return false;
    }
}

MachInst
MachInst::nop()
{
    return MachInst{};
}

MachInst
MachInst::movRR(Reg dst, Reg src)
{
    MachInst mi;
    mi.op = Op::Mov;
    mi.dst = Operand::makeReg(dst);
    mi.src1 = Operand::makeReg(src);
    return mi;
}

MachInst
MachInst::movRI(Reg dst, int32_t imm)
{
    MachInst mi;
    mi.op = Op::Mov;
    mi.dst = Operand::makeReg(dst);
    mi.src1 = Operand::makeImm(imm);
    return mi;
}

MachInst
MachInst::movHi(Reg dst, int32_t imm16)
{
    MachInst mi;
    mi.op = Op::MovHi;
    mi.dst = Operand::makeReg(dst);
    mi.src1 = Operand::makeImm(imm16);
    return mi;
}

MachInst
MachInst::load(Reg dst, Reg base, int32_t disp)
{
    MachInst mi;
    mi.op = Op::Mov;
    mi.dst = Operand::makeReg(dst);
    mi.src1 = Operand::makeMem(base, disp);
    return mi;
}

MachInst
MachInst::store(Reg base, int32_t disp, Reg src)
{
    MachInst mi;
    mi.op = Op::Mov;
    mi.dst = Operand::makeMem(base, disp);
    mi.src1 = Operand::makeReg(src);
    return mi;
}

MachInst
MachInst::loadByte(Reg dst, Reg base, int32_t disp)
{
    MachInst mi = load(dst, base, disp);
    mi.op = Op::Movb;
    return mi;
}

MachInst
MachInst::storeByte(Reg base, int32_t disp, Reg src)
{
    MachInst mi = store(base, disp, src);
    mi.op = Op::Movb;
    return mi;
}

MachInst
MachInst::storeImm(Reg base, int32_t disp, int32_t imm)
{
    MachInst mi;
    mi.op = Op::Mov;
    mi.dst = Operand::makeMem(base, disp);
    mi.src1 = Operand::makeImm(imm);
    return mi;
}

MachInst
MachInst::alu(Op op, Reg dst, Reg src1, Operand src2)
{
    MachInst mi;
    mi.op = op;
    mi.dst = Operand::makeReg(dst);
    mi.src1 = Operand::makeReg(src1);
    mi.src2 = src2;
    return mi;
}

MachInst
MachInst::lea(Reg dst, Reg base, int32_t disp)
{
    MachInst mi;
    mi.op = Op::Lea;
    mi.dst = Operand::makeReg(dst);
    mi.src1 = Operand::makeMem(base, disp);
    return mi;
}

MachInst
MachInst::cmp(Operand a, Operand b)
{
    MachInst mi;
    mi.op = Op::Cmp;
    mi.src1 = a;
    mi.src2 = b;
    return mi;
}

MachInst
MachInst::test(Operand a, Operand b)
{
    MachInst mi;
    mi.op = Op::Test;
    mi.src1 = a;
    mi.src2 = b;
    return mi;
}

MachInst
MachInst::jmp(Addr target)
{
    MachInst mi;
    mi.op = Op::Jmp;
    mi.target = target;
    return mi;
}

MachInst
MachInst::jcc(Cond c, Addr target)
{
    MachInst mi;
    mi.op = Op::Jcc;
    mi.cond = c;
    mi.target = target;
    return mi;
}

MachInst
MachInst::jmpInd(Reg r)
{
    MachInst mi;
    mi.op = Op::JmpInd;
    mi.src1 = Operand::makeReg(r);
    return mi;
}

MachInst
MachInst::call(Addr target)
{
    MachInst mi;
    mi.op = Op::Call;
    mi.target = target;
    return mi;
}

MachInst
MachInst::callInd(Reg r)
{
    MachInst mi;
    mi.op = Op::CallInd;
    mi.src1 = Operand::makeReg(r);
    return mi;
}

MachInst
MachInst::ret()
{
    MachInst mi;
    mi.op = Op::Ret;
    return mi;
}

MachInst
MachInst::push(Operand src)
{
    MachInst mi;
    mi.op = Op::Push;
    mi.src1 = src;
    return mi;
}

MachInst
MachInst::pop(Reg dst)
{
    MachInst mi;
    mi.op = Op::Pop;
    mi.dst = Operand::makeReg(dst);
    return mi;
}

MachInst
MachInst::syscall()
{
    MachInst mi;
    mi.op = Op::Syscall;
    return mi;
}

MachInst
MachInst::halt()
{
    MachInst mi;
    mi.op = Op::Halt;
    return mi;
}

MachInst
MachInst::vmExit(uint32_t index)
{
    MachInst mi;
    mi.op = Op::VmExit;
    mi.src1 = Operand::makeImm(static_cast<int32_t>(index));
    return mi;
}

std::string
operandToString(const Operand &o, const IsaDescriptor &desc)
{
    char buf[64];
    switch (o.kind) {
      case Operand::Kind::None:
        return "<none>";
      case Operand::Kind::Reg:
        return desc.regName(o.reg);
      case Operand::Kind::Imm:
        std::snprintf(buf, sizeof(buf), "$0x%x",
                      static_cast<uint32_t>(o.disp));
        return buf;
      case Operand::Kind::Mem:
        if (o.disp >= 0) {
            std::snprintf(buf, sizeof(buf), "[%s+0x%x]",
                          desc.regName(o.base).c_str(),
                          static_cast<uint32_t>(o.disp));
        } else {
            std::snprintf(buf, sizeof(buf), "[%s-0x%x]",
                          desc.regName(o.base).c_str(),
                          static_cast<uint32_t>(-o.disp));
        }
        return buf;
    }
    return "?";
}

std::string
instToString(const MachInst &mi, IsaKind isa)
{
    const IsaDescriptor &desc = isaDescriptor(isa);
    char buf[32];
    std::string s;

    switch (mi.op) {
      case Op::Nop:
      case Op::Ret:
      case Op::Syscall:
      case Op::Halt:
        return opName(mi.op);
      case Op::Jmp:
      case Op::Call:
        std::snprintf(buf, sizeof(buf), " 0x%x", mi.target);
        return std::string(opName(mi.op)) + buf;
      case Op::Jcc:
        std::snprintf(buf, sizeof(buf), " 0x%x", mi.target);
        return std::string("j") + condName(mi.cond) + buf;
      case Op::JmpInd:
      case Op::CallInd:
      case Op::Push:
        return std::string(opName(mi.op)) + " " +
            operandToString(mi.src1, desc);
      case Op::Pop:
        return std::string(opName(mi.op)) + " " +
            operandToString(mi.dst, desc);
      case Op::Cmp:
      case Op::Test:
        return std::string(opName(mi.op)) + " " +
            operandToString(mi.src1, desc) + ", " +
            operandToString(mi.src2, desc);
      case Op::Mov:
      case Op::Movb:
      case Op::Lea:
      case Op::MovHi:
        return std::string(opName(mi.op)) + " " +
            operandToString(mi.dst, desc) + ", " +
            operandToString(mi.src1, desc);
      case Op::VmExit:
        std::snprintf(buf, sizeof(buf), " #%u",
                      static_cast<uint32_t>(mi.src1.disp));
        return std::string(opName(mi.op)) + buf;
      default:
        // Three-address ALU; Cisc prints the two-address form.
        s = std::string(opName(mi.op)) + " " +
            operandToString(mi.dst, desc);
        if (!(isa == IsaKind::Cisc && mi.src1 == mi.dst))
            s += ", " + operandToString(mi.src1, desc);
        s += ", " + operandToString(mi.src2, desc);
        return s;
    }
}

} // namespace hipstr
