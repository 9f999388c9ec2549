/**
 * @file
 * Superblock trace formation. See superblock.hh for the invariants;
 * the short version: a trace is a re-encoding of instructions the
 * block loop would have executed anyway, so the JIT that runs it
 * folds every deterministic counter to the same values and stops
 * every fault at the same instruction with the same architectural
 * state.
 */

#include "vm/superblock.hh"

#include "support/logging.hh"

namespace hipstr
{

namespace
{

/** Edge-profile floor before an exit can anchor a trace. */
constexpr uint64_t kMinEdgeHits = 8;

bool
sameMem(const Operand &x, const Operand &y)
{
    return x.isMem() && y.isMem() && x.base == y.base &&
        x.disp == y.disp;
}

/** First handler (the RR shape) of the specialized ALU family. */
int
aluBaseHandler(Op op)
{
    switch (op) {
#define HIPSTR_SUPERTRACE_ALU_BASE(o)                                 \
      case Op::o:                                                     \
        return static_cast<int>(TraceH::o##RR);
        HIPSTR_SUPERTRACE_ALU_OPS(HIPSTR_SUPERTRACE_ALU_BASE)
#undef HIPSTR_SUPERTRACE_ALU_BASE
      default:
        return -1;
    }
}

/**
 * Operand-shape offset for the two-source flag setters (Cmp/Test):
 * 0 RR, 1 RI, 2 RM, 3 MR, 4 MI; -1 when no template fits.
 */
int
flagShape(const Operand &s1, const Operand &s2, TraceOp &t)
{
    if (s1.isReg() && s2.isReg()) {
        t.b = static_cast<uint8_t>(s1.reg);
        t.c = static_cast<uint8_t>(s2.reg);
        return 0;
    }
    if (s1.isReg() && s2.isImm()) {
        t.b = static_cast<uint8_t>(s1.reg);
        t.imm2 = static_cast<uint32_t>(s2.disp);
        return 1;
    }
    if (s1.isReg() && s2.isMem()) {
        t.b = static_cast<uint8_t>(s1.reg);
        t.c = static_cast<uint8_t>(s2.base);
        t.imm2 = static_cast<uint32_t>(s2.disp);
        return 2;
    }
    if (s1.isMem() && s2.isReg()) {
        t.b = static_cast<uint8_t>(s1.base);
        t.imm = static_cast<uint32_t>(s1.disp);
        t.c = static_cast<uint8_t>(s2.reg);
        return 3;
    }
    if (s1.isMem() && s2.isImm()) {
        t.b = static_cast<uint8_t>(s1.base);
        t.imm = static_cast<uint32_t>(s1.disp);
        t.imm2 = static_cast<uint32_t>(s2.disp);
        return 4;
    }
    return -1;
}

/** ALU shape: dst/src1 in a, b or a+imm (slot form); src2 in c/imm2. */
int
aluShape(const MachInst &mi, TraceOp &t)
{
    if (mi.dst.isReg() && mi.src1.isReg()) {
        t.a = static_cast<uint8_t>(mi.dst.reg);
        t.b = static_cast<uint8_t>(mi.src1.reg);
        if (mi.src2.isReg()) {
            t.c = static_cast<uint8_t>(mi.src2.reg);
            return 0;
        }
        if (mi.src2.isImm()) {
            t.imm2 = static_cast<uint32_t>(mi.src2.disp);
            return 1;
        }
        if (mi.src2.isMem()) {
            t.c = static_cast<uint8_t>(mi.src2.base);
            t.imm2 = static_cast<uint32_t>(mi.src2.disp);
            return 2;
        }
        return -1;
    }
    if (mi.dst.isMem() && sameMem(mi.dst, mi.src1)) {
        // Cisc two-address form on a relocated register slot.
        t.a = static_cast<uint8_t>(mi.dst.base);
        t.imm = static_cast<uint32_t>(mi.dst.disp);
        if (mi.src2.isReg()) {
            t.c = static_cast<uint8_t>(mi.src2.reg);
            return 3;
        }
        if (mi.src2.isImm()) {
            t.imm2 = static_cast<uint32_t>(mi.src2.disp);
            return 4;
        }
    }
    return -1;
}

/**
 * Move shape (Mov and Movb share operand forms): 0 RR, 1 RI, 2 RM,
 * 3 MR, 4 MI; -1 when no template fits.
 */
int
movShape(const MachInst &mi, TraceOp &t)
{
    if (mi.dst.isReg() && mi.src1.isReg()) {
        t.a = static_cast<uint8_t>(mi.dst.reg);
        t.b = static_cast<uint8_t>(mi.src1.reg);
        return 0;
    }
    if (mi.dst.isReg() && mi.src1.isImm()) {
        t.a = static_cast<uint8_t>(mi.dst.reg);
        t.imm = static_cast<uint32_t>(mi.src1.disp);
        return 1;
    }
    if (mi.dst.isReg() && mi.src1.isMem()) {
        t.a = static_cast<uint8_t>(mi.dst.reg);
        t.b = static_cast<uint8_t>(mi.src1.base);
        t.imm = static_cast<uint32_t>(mi.src1.disp);
        return 2;
    }
    if (mi.dst.isMem() && mi.src1.isReg()) {
        t.a = static_cast<uint8_t>(mi.dst.base);
        t.imm = static_cast<uint32_t>(mi.dst.disp);
        t.b = static_cast<uint8_t>(mi.src1.reg);
        return 3;
    }
    if (mi.dst.isMem() && mi.src1.isImm()) {
        t.a = static_cast<uint8_t>(mi.dst.base);
        t.imm = static_cast<uint32_t>(mi.dst.disp);
        t.imm2 = static_cast<uint32_t>(mi.src1.disp);
        return 4;
    }
    return -1;
}

/**
 * Encode one straight-line (Plain-class, non-Nop) instruction as a
 * TraceOp: fill @p t's handler and operand fields and return true, or
 * return false when the JIT has no template for the instruction.
 */
bool
encodeInst(const MachInst &mi, uint8_t sp_reg, TraceOp &t)
{
    switch (mi.op) {
      case Op::Mov: {
        static constexpr TraceH shapes[] = {
            TraceH::MovRR, TraceH::MovRI, TraceH::MovRM,
            TraceH::MovMR, TraceH::MovMI};
        int off = movShape(mi, t);
        if (off < 0)
            return false;
        t.h = shapes[off];
        return true;
      }

      case Op::Movb: {
        // Byte moves always have exactly one memory side.
        int off = movShape(mi, t);
        if (off < 2)
            return false;
        static constexpr TraceH shapes[] = {
            TraceH::MovbRM, TraceH::MovbMR, TraceH::MovbMI};
        t.h = shapes[off - 2];
        return true;
      }

      case Op::Lea:
        t.h = TraceH::Lea;
        t.a = static_cast<uint8_t>(mi.dst.reg);
        t.b = static_cast<uint8_t>(mi.src1.base);
        t.imm = static_cast<uint32_t>(mi.src1.disp);
        return true;

      case Op::MovHi:
        t.h = TraceH::MovHi;
        t.a = static_cast<uint8_t>(mi.dst.reg);
        t.imm = static_cast<uint32_t>(mi.src1.disp);
        return true;

      case Op::Cmp:
      case Op::Test: {
        int off = flagShape(mi.src1, mi.src2, t);
        if (off < 0)
            return false;
        TraceH base = mi.op == Op::Cmp ? TraceH::CmpRR : TraceH::TestRR;
        t.h = static_cast<TraceH>(static_cast<int>(base) + off);
        return true;
      }

      case Op::Push:
        t.a = sp_reg;
        if (mi.src1.isReg()) {
            t.h = TraceH::PushR;
            t.b = static_cast<uint8_t>(mi.src1.reg);
            return true;
        }
        if (mi.src1.isImm()) {
            t.h = TraceH::PushI;
            t.imm = static_cast<uint32_t>(mi.src1.disp);
            return true;
        }
        return false;

      case Op::Pop:
        if (!mi.dst.isReg())
            return false;
        t.h = TraceH::PopR;
        t.a = sp_reg;
        t.b = static_cast<uint8_t>(mi.dst.reg);
        return true;

      default: {
        int alu_base = aluBaseHandler(mi.op);
        int off = alu_base >= 0 ? aluShape(mi, t) : -1;
        if (off < 0)
            return false;
        t.h = static_cast<TraceH>(alu_base + off);
        return true;
      }
    }
}

/**
 * True when the trace JIT can run @p ti inline: Nops (which emit no
 * op — the boundary fold accounts them through the translate-time
 * running totals) and instructions with a template.
 */
bool
hasTemplate(const TInst &ti)
{
    TraceOp scratch;
    return ti.mi.op == Op::Nop || encodeInst(ti.mi, 0, scratch);
}

/**
 * First instruction of @p b a trace cannot run through: a
 * Ret/Syscall/VmExit (a mid-segment counter fold, an indirect
 * transfer, or an unconditional exit), or a straight-line instruction
 * with no JIT template. A final segment ends at it and the block loop
 * resumes there, so an instruction without a template is treated
 * exactly like a syscall. -1 when there is none.
 */
int
terminalInst(const TranslatedBlock *b)
{
    for (size_t i = 0; i < b->insts.size(); ++i) {
        const TInst &ti = b->insts[i];
        if (ti.klass == ExecClass::Jcc)
            continue;
        const bool straight = ti.klass == ExecClass::Plain ||
            ti.klass == ExecClass::GuestStartPlain;
        if (!straight || !hasTemplate(ti))
            return static_cast<int>(i);
    }
    return -1;
}

/**
 * True when insts [0, bound) hold only templated straight-line
 * instructions and conditional side exits.
 */
bool
cleanPrefix(const TranslatedBlock *b, int bound)
{
    const int t = terminalInst(b);
    return t < 0 || t >= bound;
}

/** Instruction whose execution takes @p exit_idx, or -1. */
int
boundaryInstFor(const TranslatedBlock *b, size_t exit_idx)
{
    for (size_t i = 0; i < b->insts.size(); ++i) {
        const TInst &ti = b->insts[i];
        if (ti.klass == ExecClass::Jcc) {
            if (ti.exitIdx == static_cast<int>(exit_idx))
                return static_cast<int>(i);
        } else if (ti.klass == ExecClass::VmExit) {
            int e = ti.exitIdx >= 0
                ? ti.exitIdx
                : static_cast<int>(ti.mi.src1.disp);
            if (e == static_cast<int>(exit_idx))
                return static_cast<int>(i);
        }
    }
    return -1;
}

/**
 * Dominant exit of @p b: the most-taken edge, if it has been taken at
 * least kMinEdgeHits times and carries at least two thirds of the
 * block's recorded exits. Ties resolve to the lowest index, keeping
 * formation deterministic for a given execution history.
 */
int
dominantExit(const TranslatedBlock *b)
{
    uint64_t total = 0;
    uint64_t best_hits = 0;
    int best = -1;
    for (size_t e = 0; e < b->exits.size(); ++e) {
        uint64_t h = b->exits[e].hitCount;
        total += h;
        if (h > best_hits) {
            best_hits = h;
            best = static_cast<int>(e);
        }
    }
    if (best < 0 || best_hits < kMinEdgeHits)
        return -1;
    if (best_hits * 3 < total * 2)
        return -1;
    return best;
}

/** One planned trace segment before emission. */
struct PlannedSeg
{
    TranslatedBlock *blk;
    int boundary; ///< inst index of the segment's last instruction
    int exitIdx;  ///< taken exit (interior segments), -1 for final
    bool isFinal;
};

} // namespace

SuperTrace *
TraceEngine::tryForm(TranslatedBlock *head, const PsrConfig &cfg,
                     uint8_t sp_reg, bool isomeron, uint64_t flush_gen)
{
    ++stats.attempts;

    // Walk the dominant chained edges. A block extends the trace when
    // its hottest exit is a chained direct branch/call whose boundary
    // instruction is preceded only by straight-line code and guards;
    // anything else ends the walk and the last block becomes the
    // final (resume-into-the-block-loop) segment. Revisiting a
    // non-head block simply unrolls it; reaching the head closes the
    // trace into a loop.
    std::vector<PlannedSeg> plan;
    TranslatedBlock *cur = head;
    bool loop_back = false;
    while (plan.size() < cfg.traceMaxBlocks) {
        int e = dominantExit(cur);
        if (e < 0)
            break;
        const BlockExit &ex = cur->exits[static_cast<size_t>(e)];
        const bool kind_ok = ex.kind == BlockExit::Kind::Branch ||
            (ex.kind == BlockExit::Kind::Call && !isomeron);
        if (!kind_ok || ex.chained == nullptr ||
            ex.chained->srcStart != ex.target)
            break;
        int boundary = boundaryInstFor(cur, static_cast<size_t>(e));
        if (boundary < 0 || !cleanPrefix(cur, boundary))
            break;
        if (cur->insts[boundary].klass == ExecClass::Jcc &&
            ex.kind != BlockExit::Kind::Branch)
            break;
        plan.push_back({ cur, boundary, e, false });
        TranslatedBlock *next = ex.chained;
        if (next == head) {
            loop_back = true;
            break;
        }
        cur = next;
    }

    if (!loop_back) {
        if (plan.empty())
            return nullptr; // no dominant chain yet (or ever)
        int endi = terminalInst(cur); // everything before it is clean
        if (endi < 0)
            return nullptr;
        plan.push_back({ cur, endi, -1, true });
    }

    auto tr = std::make_unique<SuperTrace>();
    tr->headPc = head->srcStart;
    tr->flushGen = flush_gen;
    tr->loopBack = loop_back;

    std::vector<uint32_t> seg_first;
    for (size_t si = 0; si < plan.size(); ++si) {
        const PlannedSeg &ps = plan[si];
        seg_first.push_back(static_cast<uint32_t>(tr->ops.size()));
        tr->segs.push_back({ ps.blk, ps.blk->srcStart });

        for (int i = 0; i < ps.boundary; ++i) {
            const TInst &ti =
                ps.blk->insts[static_cast<size_t>(i)];
            if (ti.klass == ExecClass::Jcc) {
                TraceOp g;
                g.h = TraceH::JccGuard;
                g.cond = ti.mi.cond;
                g.seg = static_cast<uint16_t>(si);
                g.instIdx = static_cast<uint32_t>(i);
                g.ti = &ti;
                tr->ops.push_back(g);
            } else if (ti.mi.op != Op::Nop) {
                TraceOp t;
                t.seg = static_cast<uint16_t>(si);
                t.instIdx = static_cast<uint32_t>(i);
                t.ti = &ti;
                // cleanPrefix/terminalInst admitted only these.
                const bool encoded = encodeInst(ti.mi, sp_reg, t);
                hipstr_assert(encoded);
                tr->ops.push_back(t);
            }
        }

        const TInst &bi =
            ps.blk->insts[static_cast<size_t>(ps.boundary)];
        TraceOp t;
        t.seg = static_cast<uint16_t>(si);
        t.instIdx = static_cast<uint32_t>(ps.boundary);
        t.ti = &bi;
        t.guestD = bi.guestCum;
        t.readsD = bi.memReadsCum;
        t.writesD = bi.memWritesCum;
        if (ps.isFinal) {
            t.h = TraceH::TraceEnd;
        } else {
            const BlockExit &ex =
                ps.blk->exits[static_cast<size_t>(ps.exitIdx)];
            t.imm = ex.target;
            if (bi.klass == ExecClass::Jcc) {
                t.h = TraceH::SegBranchCc;
                t.cond = bi.mi.cond;
            } else if (ex.kind == BlockExit::Kind::Branch) {
                t.h = TraceH::SegBranch;
            } else {
                t.h = TraceH::SegCall;
                t.imm2 = ex.returnTo;
            }
        }
        tr->ops.push_back(t);
    }

    // Wire the taken segment edges: each interior boundary is the last
    // op of its segment and jumps to the next segment's first op (or
    // back to op 0 when the trace closes on its head).
    for (size_t si = 0; si + 1 < plan.size(); ++si)
        tr->ops[seg_first[si + 1] - 1].jumpTo = seg_first[si + 1];
    if (loop_back)
        tr->ops.back().jumpTo = 0;

    SuperTrace *raw = tr.get();
    head->strace = raw;
    _live.push_back(std::move(tr));
    ++stats.formed;
    return raw;
}

void
TraceEngine::invalidateAll()
{
    if (_live.empty())
        return;
    stats.invalidated += _live.size();
    for (auto &t : _live)
        _retired.push_back(std::move(t));
    _live.clear();
}

} // namespace hipstr
