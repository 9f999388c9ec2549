/**
 * @file
 * Execution shapes: the one vocabulary the executor, the PSR VM's
 * block loops and the trace JIT share for "what kind of instruction
 * is this, with which operand forms".
 *
 * Every executed instruction is classified once, where it is already
 * cached: the reference interpreter stamps the shape into its decode
 * cache line, the translator into each TInst. executeInstInline then
 * dispatches on the shape alone, so a straight-line instruction costs
 * one switch, with no second dispatch on the op or operand kinds. The
 * straight-line shapes are exactly the ones the trace JIT has a code
 * template for, in the same order (TraceH in vm/superblock.hh shares
 * their values), so trace formation reads the stamped shape.
 *
 * Operand forms: RR/RI register-register/immediate, RM register with
 * a memory source, MR/MI memory destination (the Cisc two-address
 * slot forms, where dst and src1 name the same memory word). The
 * Movb shapes are the byte moves: RM zero-extends mem8 into a
 * register, MR/MI store the low byte.
 */

#ifndef HIPSTR_ISA_EXEC_SHAPE_HH
#define HIPSTR_ISA_EXEC_SHAPE_HH

#include <cstdint>

#include "isa/instruction.hh"

namespace hipstr
{

/** The ALU ops with one shape per operand form. */
#define HIPSTR_ALU_OPS(X)                                             \
    X(Add) X(Sub) X(And) X(Or) X(Xor) X(Shl) X(Shr) X(Sar) X(Mul)     \
    X(Divu)

/** The straight-line shapes before the ALU family, in order. */
#define HIPSTR_MOVE_FLAG_STACK_SHAPES(X)                              \
    X(MovRR) X(MovRI) X(MovRM) X(MovMR) X(MovMI)                      \
    X(MovbRM) X(MovbMR) X(MovbMI)                                     \
    X(Lea) X(MovHi)                                                   \
    X(CmpRR) X(CmpRI) X(CmpRM) X(CmpMR) X(CmpMI)                      \
    X(TestRR) X(TestRI) X(TestRM) X(TestMR) X(TestMI)                 \
    X(PushR) X(PushI) X(PopR)

/** Enumerator list of every straight-line shape (ExecShape, TraceH). */
#define HIPSTR_SHAPE_ENUMERATOR(s) s,
#define HIPSTR_ALU_SHAPE_ENUMERATORS(op)                              \
    op##RR, op##RI, op##RM, op##MR, op##MI,
#define HIPSTR_STRAIGHT_SHAPE_ENUMERATORS                             \
    HIPSTR_MOVE_FLAG_STACK_SHAPES(HIPSTR_SHAPE_ENUMERATOR)            \
    HIPSTR_ALU_OPS(HIPSTR_ALU_SHAPE_ENUMERATORS)

/**
 * How an instruction executes. The straight-line shapes come first;
 * then the control shapes the reference interpreter runs often; then
 * PerOp, every other form (rare operand forms, Halt, indirect
 * transfers, interpreter syscalls), which the per-op code runs; then
 * the block-loop exits, which only the translator stamps.
 */
enum class ExecShape : uint8_t
{
    HIPSTR_STRAIGHT_SHAPE_ENUMERATORS
    // The ALU family ends here: aluForm() relies on Nop following
    // its last shape.
    Nop,
    Jmp,
    Jcc,     ///< conditional branch on pc: target or fall-through
    Call,    ///< direct call (Cisc pushes the return address)
    Ret,     ///< pop the return address into pc
    VmExit,  ///< translator pseudo-op: ExecStatus::VmExit everywhere
    PerOp,   ///< any other form: the per-op code
    JccExit,     ///< block loop: conditional branch wired to an exit
    RetExit,     ///< block loop: return macro-op (RAT-translated)
    SyscallExit, ///< block loop: OS entry (may redirect or exit)
    NumShapes
};

/** Number of straight-line (trace-templated) shapes. */
constexpr unsigned kNumStraightShapes =
    static_cast<unsigned>(ExecShape::Nop);

/** True for the shapes the trace JIT has a template for. */
constexpr bool
isStraightShape(ExecShape s)
{
    return s < ExecShape::Nop;
}

/**
 * Operand form of a straight-line shape with five forms (Mov, Cmp,
 * Test and the ALU family): 0 RR, 1 RI, 2 RM, 3 MR, 4 MI.
 */
enum class ShapeForm : uint8_t { RR, RI, RM, MR, MI };

/**
 * Index of @p s within the ALU family, or -1 for any other shape.
 * index % 5 is the ShapeForm and index / 5 the op, in
 * HIPSTR_ALU_OPS order.
 */
constexpr int
aluIndex(ExecShape s)
{
    if (s < ExecShape::AddRR || s >= ExecShape::Nop)
        return -1;
    return static_cast<int>(s) - static_cast<int>(ExecShape::AddRR);
}

/**
 * Classify @p mi. Never returns a block-loop exit shape: the
 * translator stamps those itself for the instructions it wires to
 * exits. A straight-line shape is returned only when every operand
 * slot the form leaves unused holds no memory operand, so the shape's
 * accesses are exactly forEachMemAccess's.
 */
ExecShape classifyExec(const MachInst &mi);

} // namespace hipstr

#endif // HIPSTR_ISA_EXEC_SHAPE_HH
