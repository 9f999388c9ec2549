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

/**
 * Fill @p t's operand fields for straight-line shape @p shape from
 * the fields its form fixes: a = dst reg / memory base / stack
 * pointer, b = src reg / memory base, c = second src reg / base, imm
 * = the first displacement or immediate, imm2 the second.
 */
void
encodeOperands(const MachInst &mi, ExecShape shape, uint8_t sp_reg,
               TraceOp &t)
{
    auto reg = [](Reg r) { return static_cast<uint8_t>(r); };
    auto word = [](int32_t v) { return static_cast<uint32_t>(v); };
    t.h = traceHandler(shape);

    if (const int alu = aluIndex(shape); alu >= 0) {
        switch (static_cast<ShapeForm>(alu % 5)) {
          case ShapeForm::RR:
            t.a = reg(mi.dst.reg);
            t.b = reg(mi.src1.reg);
            t.c = reg(mi.src2.reg);
            return;
          case ShapeForm::RI:
            t.a = reg(mi.dst.reg);
            t.b = reg(mi.src1.reg);
            t.imm2 = word(mi.src2.disp);
            return;
          case ShapeForm::RM:
            t.a = reg(mi.dst.reg);
            t.b = reg(mi.src1.reg);
            t.c = reg(mi.src2.base);
            t.imm2 = word(mi.src2.disp);
            return;
          case ShapeForm::MR:
            // Cisc two-address form on a relocated register slot.
            t.a = reg(mi.dst.base);
            t.imm = word(mi.dst.disp);
            t.c = reg(mi.src2.reg);
            return;
          case ShapeForm::MI:
            t.a = reg(mi.dst.base);
            t.imm = word(mi.dst.disp);
            t.imm2 = word(mi.src2.disp);
            return;
        }
    }

    switch (shape) {
      case ExecShape::MovRR:
        t.a = reg(mi.dst.reg);
        t.b = reg(mi.src1.reg);
        return;
      case ExecShape::MovRI:
        t.a = reg(mi.dst.reg);
        t.imm = word(mi.src1.disp);
        return;
      case ExecShape::MovRM:
      case ExecShape::MovbRM:
      case ExecShape::Lea:
        t.a = reg(mi.dst.reg);
        t.b = reg(mi.src1.base);
        t.imm = word(mi.src1.disp);
        return;
      case ExecShape::MovMR:
      case ExecShape::MovbMR:
        t.a = reg(mi.dst.base);
        t.imm = word(mi.dst.disp);
        t.b = reg(mi.src1.reg);
        return;
      case ExecShape::MovMI:
      case ExecShape::MovbMI:
        t.a = reg(mi.dst.base);
        t.imm = word(mi.dst.disp);
        t.imm2 = word(mi.src1.disp);
        return;
      case ExecShape::MovHi:
        t.a = reg(mi.dst.reg);
        t.imm = word(mi.src1.disp);
        return;
      case ExecShape::CmpRR:
      case ExecShape::TestRR:
        t.b = reg(mi.src1.reg);
        t.c = reg(mi.src2.reg);
        return;
      case ExecShape::CmpRI:
      case ExecShape::TestRI:
        t.b = reg(mi.src1.reg);
        t.imm2 = word(mi.src2.disp);
        return;
      case ExecShape::CmpRM:
      case ExecShape::TestRM:
        t.b = reg(mi.src1.reg);
        t.c = reg(mi.src2.base);
        t.imm2 = word(mi.src2.disp);
        return;
      case ExecShape::CmpMR:
      case ExecShape::TestMR:
        t.b = reg(mi.src1.base);
        t.imm = word(mi.src1.disp);
        t.c = reg(mi.src2.reg);
        return;
      case ExecShape::CmpMI:
      case ExecShape::TestMI:
        t.b = reg(mi.src1.base);
        t.imm = word(mi.src1.disp);
        t.imm2 = word(mi.src2.disp);
        return;
      case ExecShape::PushR:
        t.a = sp_reg;
        t.b = reg(mi.src1.reg);
        return;
      case ExecShape::PushI:
        t.a = sp_reg;
        t.imm = word(mi.src1.disp);
        return;
      case ExecShape::PopR:
        t.a = sp_reg;
        t.b = reg(mi.dst.reg);
        return;
      default:
        hipstr_panic("encodeOperands: shape %u has no template",
                     static_cast<unsigned>(shape));
    }
}

/**
 * True when the trace JIT can run @p ti inline: Nops (which emit no
 * op — the boundary fold accounts them through the translate-time
 * running totals) and the straight-line shapes, each of which has a
 * template.
 */
bool
hasTemplate(const TInst &ti)
{
    return ti.shape == ExecShape::Nop || isStraightShape(ti.shape);
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
        if (ti.shape == ExecShape::JccExit)
            continue;
        if (!hasTemplate(ti))
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
        if (ti.shape == ExecShape::JccExit) {
            if (ti.exitIdx == static_cast<int>(exit_idx))
                return static_cast<int>(i);
        } else if (ti.mi.op == Op::VmExit) {
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
        if (cur->insts[boundary].shape == ExecShape::JccExit &&
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
            if (ti.shape == ExecShape::JccExit) {
                TraceOp g;
                g.h = TraceH::JccGuard;
                g.cond = ti.mi.cond;
                g.seg = static_cast<uint16_t>(si);
                g.instIdx = static_cast<uint32_t>(i);
                g.ti = &ti;
                tr->ops.push_back(g);
            } else if (ti.shape != ExecShape::Nop) {
                // cleanPrefix/terminalInst admitted only straight-line
                // shapes here.
                TraceOp t;
                t.seg = static_cast<uint16_t>(si);
                t.instIdx = static_cast<uint32_t>(i);
                t.ti = &ti;
                encodeOperands(ti.mi, ti.shape, sp_reg, t);
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
            if (bi.shape == ExecShape::JccExit) {
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
