#include "exec_shape.hh"

namespace hipstr
{

namespace
{

bool
sameMem(const Operand &x, const Operand &y)
{
    return x.isMem() && y.isMem() && x.base == y.base &&
        x.disp == y.disp;
}

/** Shape @p first plus @p form, within one five-form family. */
ExecShape
withForm(ExecShape first, ShapeForm form)
{
    return static_cast<ExecShape>(static_cast<int>(first) +
                                  static_cast<int>(form));
}

/** Move form (Mov and Movb): dst from src1. */
bool
moveForm(const MachInst &mi, ShapeForm &form)
{
    if (mi.dst.isReg()) {
        if (mi.src1.isReg())
            form = ShapeForm::RR;
        else if (mi.src1.isImm())
            form = ShapeForm::RI;
        else if (mi.src1.isMem())
            form = ShapeForm::RM;
        else
            return false;
        return true;
    }
    if (mi.dst.isMem()) {
        if (mi.src1.isReg())
            form = ShapeForm::MR;
        else if (mi.src1.isImm())
            form = ShapeForm::MI;
        else
            return false;
        return true;
    }
    return false;
}

/** Flag-setter form (Cmp/Test): src1 against src2, no destination. */
bool
flagForm(const MachInst &mi, ShapeForm &form)
{
    if (mi.dst.isMem())
        return false;
    const Operand &s1 = mi.src1, &s2 = mi.src2;
    if (s1.isReg() && s2.isReg())
        form = ShapeForm::RR;
    else if (s1.isReg() && s2.isImm())
        form = ShapeForm::RI;
    else if (s1.isReg() && s2.isMem())
        form = ShapeForm::RM;
    else if (s1.isMem() && s2.isReg())
        form = ShapeForm::MR;
    else if (s1.isMem() && s2.isImm())
        form = ShapeForm::MI;
    else
        return false;
    return true;
}

/** ALU form: dst = src1 OP src2, or the two-address slot form. */
bool
aluForm(const MachInst &mi, ShapeForm &form)
{
    const Operand &s2 = mi.src2;
    if (mi.dst.isReg() && mi.src1.isReg()) {
        if (s2.isReg())
            form = ShapeForm::RR;
        else if (s2.isImm())
            form = ShapeForm::RI;
        else if (s2.isMem())
            form = ShapeForm::RM;
        else
            return false;
        return true;
    }
    if (sameMem(mi.dst, mi.src1)) {
        if (s2.isReg())
            form = ShapeForm::MR;
        else if (s2.isImm())
            form = ShapeForm::MI;
        else
            return false;
        return true;
    }
    return false;
}

bool
noMem(const MachInst &mi)
{
    return !mi.dst.isMem() && !mi.src1.isMem() && !mi.src2.isMem();
}

} // namespace

ExecShape
classifyExec(const MachInst &mi)
{
    ShapeForm form = ShapeForm::RR;
    switch (mi.op) {
      case Op::Mov:
        return moveForm(mi, form) ? withForm(ExecShape::MovRR, form)
                                  : ExecShape::PerOp;

      case Op::Movb:
        // Byte moves always have exactly one memory side.
        if (!moveForm(mi, form) || form < ShapeForm::RM)
            return ExecShape::PerOp;
        return static_cast<ExecShape>(
            static_cast<int>(ExecShape::MovbRM) +
            static_cast<int>(form) - static_cast<int>(ShapeForm::RM));

      case Op::Lea:
        return ExecShape::Lea;

      case Op::MovHi:
        return ExecShape::MovHi;

      case Op::Cmp:
      case Op::Test:
        if (!flagForm(mi, form))
            return ExecShape::PerOp;
        return withForm(mi.op == Op::Cmp ? ExecShape::CmpRR
                                         : ExecShape::TestRR,
                        form);

      case Op::Push:
        if (mi.dst.isMem() || mi.src2.isMem())
            return ExecShape::PerOp;
        if (mi.src1.isReg())
            return ExecShape::PushR;
        if (mi.src1.isImm())
            return ExecShape::PushI;
        return ExecShape::PerOp;

      case Op::Pop:
        if (!mi.dst.isReg() || mi.src1.isMem() || mi.src2.isMem())
            return ExecShape::PerOp;
        return ExecShape::PopR;

#define HIPSTR_ALU_CLASSIFY(o)                                        \
      case Op::o:                                                     \
        return aluForm(mi, form) ? withForm(ExecShape::o##RR, form)   \
                                 : ExecShape::PerOp;
        HIPSTR_ALU_OPS(HIPSTR_ALU_CLASSIFY)
#undef HIPSTR_ALU_CLASSIFY

      case Op::Nop:
        return noMem(mi) ? ExecShape::Nop : ExecShape::PerOp;
      case Op::Jmp:
        return noMem(mi) ? ExecShape::Jmp : ExecShape::PerOp;
      case Op::Jcc:
        return noMem(mi) ? ExecShape::Jcc : ExecShape::PerOp;
      case Op::Call:
        return noMem(mi) ? ExecShape::Call : ExecShape::PerOp;
      case Op::Ret:
        return noMem(mi) ? ExecShape::Ret : ExecShape::PerOp;
      case Op::VmExit:
        return noMem(mi) ? ExecShape::VmExit : ExecShape::PerOp;

      case Op::JmpInd:
      case Op::CallInd:
      case Op::Syscall:
      case Op::Halt:
        return ExecShape::PerOp;
    }
    return ExecShape::PerOp;
}

} // namespace hipstr
