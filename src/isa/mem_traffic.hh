/**
 * @file
 * The single source of truth for per-instruction data-memory traffic.
 *
 * Three consumers walk this one enumeration: the translator, which
 * bakes the counts into each translated instruction (the VM credits
 * memReads/memWrites from them in both of its block loops), the VM's
 * timed loop, which forms the addresses for the timing model, and the
 * timing model's native step. So an instruction can never be
 * double-counted on one engine and missed on the other.
 *
 * Enumeration order is reads first (src1, src2), then the destination
 * write, then the implicit stack access — the access order a real
 * pipeline would issue for a read-modify-write.
 */

#ifndef HIPSTR_ISA_MEM_TRAFFIC_HH
#define HIPSTR_ISA_MEM_TRAFFIC_HH

#include "isa/instruction.hh"
#include "isa/machine_state.hh"

namespace hipstr
{

/** Static per-instruction data-access counts. */
struct MemCounts
{
    uint8_t reads = 0;
    uint8_t writes = 0;
};

/**
 * Invoke cb(addr, is_write) for every data-memory access @p mi
 * performs, using @p state (pre-execution register values) to form
 * addresses. Explicit operands first, then implicit stack traffic:
 *
 *  - Mov/Movb move a value from src1 to dst; any other op reads
 *    src1/src2 and writes dst (memory operands only).
 *  - Lea only forms its src1 address; it touches no memory.
 *  - Push writes the new top of stack on every ISA; Call/CallInd
 *    push a return address only on the Cisc ISA (the Risc ISA links
 *    through a register).
 *  - Pop and Ret read the current top of stack.
 *
 * Control-transfer target reads (JmpInd/CallInd through memory) are
 * accounted by the dispatcher that resolves them, not here.
 *
 * Forced inline: the timed loops call it once per instruction.
 */
template <typename Cb>
[[gnu::always_inline]] inline void
forEachMemAccess(const MachInst &mi, const MachineState &state,
                 Cb &&cb)
{
    auto operand = [&](const Operand &o, bool write) {
        if (o.isMem()) {
            cb(state.reg(o.base) + static_cast<uint32_t>(o.disp),
               write);
        }
    };
    if (mi.op == Op::Lea)
        return;
    if (mi.op == Op::Mov || mi.op == Op::Movb) {
        operand(mi.src1, false);
        operand(mi.dst, true);
    } else {
        operand(mi.src1, false);
        operand(mi.src2, false);
        operand(mi.dst, true);
    }
    switch (mi.op) {
      case Op::Push:
        cb(state.sp() - 4, true);
        break;
      case Op::Call:
      case Op::CallInd:
        if (state.isa == IsaKind::Cisc)
            cb(state.sp() - 4, true);
        break;
      case Op::Pop:
      case Op::Ret:
        cb(state.sp(), false);
        break;
      default:
        break;
    }
}

/**
 * The counts forEachMemAccess would produce for @p mi on @p isa —
 * a static property of the instruction, computable at translate time.
 */
inline MemCounts
instMemCounts(const MachInst &mi, IsaKind isa)
{
    MemCounts c;
    auto operand = [&](const Operand &o, bool write) {
        if (o.isMem()) {
            if (write)
                ++c.writes;
            else
                ++c.reads;
        }
    };
    if (mi.op == Op::Lea)
        return c;
    if (mi.op == Op::Mov || mi.op == Op::Movb) {
        operand(mi.src1, false);
        operand(mi.dst, true);
    } else {
        operand(mi.src1, false);
        operand(mi.src2, false);
        operand(mi.dst, true);
    }
    switch (mi.op) {
      case Op::Push:
        ++c.writes;
        break;
      case Op::Call:
      case Op::CallInd:
        if (isa == IsaKind::Cisc)
            ++c.writes;
        break;
      case Op::Pop:
      case Op::Ret:
        ++c.reads;
        break;
      default:
        break;
    }
    return c;
}

} // namespace hipstr

#endif // HIPSTR_ISA_MEM_TRAFFIC_HH
