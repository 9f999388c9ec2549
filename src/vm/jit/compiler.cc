#include "compiler.hh"

#include <algorithm>
#include <array>
#include <vector>

#include "vm/superblock.hh"

namespace hipstr::jit
{

namespace
{

/** Host registers pinned by convention (see compiler.hh). */
constexpr uint8_t kStatsReg = R12;
constexpr uint8_t kFrameReg = R13;
constexpr uint8_t kMemReg = R14;
constexpr uint8_t kRegsReg = R15;
/** Base of the trace's persistent per-op span-hint table (rbx is
    callee-saved, so it survives helper calls without a reload). */
constexpr uint8_t kHintReg = RBX;

/** Guest registers allocate onto these (scratch: rax/rcx/rdx). */
constexpr uint8_t kAllocatable[] = {RBP, RSI, RDI,
                                    R8, R9, R10, R11};
constexpr size_t kNumAllocatable =
    sizeof(kAllocatable) / sizeof(kAllocatable[0]);

constexpr uint8_t kNoHostReg = 0xff;

constexpr uint32_t kExitSide = kJitExitSide;
constexpr uint32_t kExitEnd = kJitExitEnd;
constexpr uint32_t kExitBudget = kJitExitBudget;

/** 0x03-family (reg <- reg op rm) ALU opcodes. */
constexpr uint8_t kAddLoad = 0x03, kOrLoad = 0x0b, kAndLoad = 0x23,
                  kSubLoad = 0x2b, kXorLoad = 0x33, kCmpLoad = 0x3b;
/** 81 /n immediate-group indices. */
constexpr uint8_t kAddN = 0, kOrN = 1, kAndN = 4, kSubN = 5,
                  kXorN = 6, kCmpN = 7;
/** C1 /n shift-group indices. */
constexpr uint8_t kShlN = 4, kShrN = 5, kSarN = 7;

Cc
mapCond(Cond c)
{
    switch (c) {
      case Cond::Eq: return Cc::E;
      case Cond::Ne: return Cc::Ne;
      case Cond::Lt: return Cc::L;
      case Cond::Le: return Cc::Le;
      case Cond::Gt: return Cc::G;
      case Cond::Ge: return Cc::Ge;
      case Cond::B: return Cc::B;
      case Cond::Be: return Cc::Be;
      case Cond::A: return Cc::A;
      case Cond::Ae: return Cc::Ae;
    }
    return Cc::E;
}

Cond
condInvert(Cond c)
{
    switch (c) {
      case Cond::Eq: return Cond::Ne;
      case Cond::Ne: return Cond::Eq;
      case Cond::Lt: return Cond::Ge;
      case Cond::Le: return Cond::Gt;
      case Cond::Gt: return Cond::Le;
      case Cond::Ge: return Cond::Lt;
      case Cond::B: return Cond::Ae;
      case Cond::Be: return Cond::A;
      case Cond::A: return Cond::Be;
      case Cond::Ae: return Cond::B;
    }
    return Cond::Ne;
}

/** Which TraceOp fields name guest registers, per handler shape. */
struct RegUse
{
    bool a = false, b = false, c = false;
};

RegUse
regUse(TraceH h)
{
    // ALU shapes repeat every 5; reduce to a shape index: 0 RR, 1 RI,
    // 2 RM, 3 MR, 4 MI.
    if (const int alu = traceAluIndex(h); alu >= 0) {
        switch (alu % 5) {
          case 0: return {true, true, true};   // a <- b op c
          case 1: return {true, true, false};  // a <- b op imm
          case 2: return {true, true, true};   // a <- b op [c+d]
          case 3: return {true, false, true};  // [a+d] op= c
          case 4: return {true, false, false}; // [a+d] op= imm
        }
    }
    switch (h) {
      case TraceH::MovRR: return {true, true, false};
      case TraceH::MovRI: return {true, false, false};
      case TraceH::MovRM: return {true, true, false};
      case TraceH::MovMR: return {true, true, false};
      case TraceH::MovMI: return {true, false, false};
      case TraceH::MovbRM: return {true, true, false};
      case TraceH::MovbMR: return {true, true, false};
      case TraceH::MovbMI: return {true, false, false};
      case TraceH::Lea: return {true, true, false};
      case TraceH::MovHi: return {true, false, false};
      case TraceH::CmpRR: return {false, true, true};
      case TraceH::CmpRI: return {false, true, false};
      case TraceH::CmpRM: return {false, true, true};
      case TraceH::CmpMR: return {false, true, true};
      case TraceH::CmpMI: return {false, true, false};
      case TraceH::TestRR: return {false, true, true};
      case TraceH::TestRI: return {false, true, false};
      case TraceH::TestRM: return {false, true, true};
      case TraceH::TestMR: return {false, true, true};
      case TraceH::TestMI: return {false, true, false};
      case TraceH::PushR: return {true, true, false};
      case TraceH::PushI: return {true, false, false};
      case TraceH::PopR: return {true, true, false};
      default: return {};
    }
}

/**
 * The compiler proper: one instance per compileTrace call. Holds the
 * allocation map, the per-op label tables (in the caller's
 * CompileScratch), and the compile-time
 * EFLAGS-liveness bit used to turn Cmp+Jcc pairs into native
 * compare-and-branch without a state.flags round trip.
 */
class TraceCompiler
{
  public:
    TraceCompiler(const SuperTrace &tr, const CompileLayout &lay,
                  Emitter &em, CompileScratch &scratch)
        : _tr(tr), _lay(lay), _em(em), _allocated(scratch.allocated),
          _opLabel(scratch.opLabel), _exitBlobs(scratch.exitBlobs),
          _missBlobs(scratch.missBlobs)
    {
        _allocated.clear();
        _exitBlobs.clear();
        _missBlobs.clear();
    }

    bool compile();

  private:
    const SuperTrace &_tr;
    const CompileLayout &_lay;
    Emitter &_em;

    std::array<uint8_t, 16> _hostOf{}; ///< guest -> host or kNoHostReg
    std::vector<uint8_t> &_allocated;  ///< guest regs with a host reg
    std::vector<int> &_opLabel;        ///< label per op (-1 if none)
    int _epilogue = -1;
    int _sharedSlow = -1;
    bool _needSlow = false;
    bool _eflagsLive = false; ///< EFLAGS hold the last guest Cmp/Test

    using ExitBlob = CompileScratch::ExitBlob;
    using MissBlob = CompileScratch::MissBlob;
    std::vector<ExitBlob> &_exitBlobs;
    std::vector<MissBlob> &_missBlobs;

    bool isAlloc(uint8_t g) const { return _hostOf[g] != kNoHostReg; }
    uint8_t host(uint8_t g) const { return _hostOf[g]; }
    Mem home(uint8_t g) const
    {
        return Mem(kRegsReg, 4 * static_cast<int32_t>(g));
    }
    Mem frameMem(int32_t off) const { return Mem(kFrameReg, off); }
    Mem flagByte(int32_t idx) const
    {
        return Mem(kRegsReg, _lay.flagsOffFromRegs + idx);
    }

    void allocateRegisters();

    int exitBlob(uint32_t code, uint32_t opIdx);
    int missBlob(uint32_t opIdx, int retryLabel);

    void flushRegs();
    void reloadRegs();

    /** Value of guest reg @p g in a host reg (load into @p scratch
        when unallocated). */
    uint8_t
    readReg(uint8_t g, uint8_t scratch)
    {
        if (isAlloc(g))
            return host(g);
        _em.movRM32(scratch, home(g));
        return scratch;
    }
    void
    writeReg(uint8_t g, uint8_t src)
    {
        if (isAlloc(g)) {
            if (host(g) != src)
                _em.movRR32(host(g), src);
        } else {
            _em.movMR32(home(g), src);
        }
    }
    void
    writeRegImm(uint8_t g, uint32_t imm)
    {
        if (isAlloc(g))
            _em.movRI32(host(g), imm);
        else
            _em.movMI32(home(g), imm);
    }

    /** edx <- R(base) + disp (mod 2^32; EFLAGS untouched). */
    void
    emitAddr(uint8_t base, uint32_t disp)
    {
        int32_t d = static_cast<int32_t>(disp);
        if (isAlloc(base)) {
            if (d == 0)
                _em.movRR32(RDX, host(base));
            else
                _em.leaRM32(RDX, Mem(host(base), d));
        } else {
            _em.movRM32(RDX, home(base));
            if (d != 0)
                _em.leaRM32(RDX, Mem(RDX, d));
        }
    }

    /** Range-check edx against op @p idx's persistent hint slot. */
    void
    emitHintCheck(uint32_t idx, int miss)
    {
        int32_t off = static_cast<int32_t>(8 * idx);
        _em.cmpRM32(RDX, Mem(kHintReg, off));
        _em.jcc(Cc::B, miss);
        _em.cmpRM32(RDX, Mem(kHintReg, off + 4));
        _em.jcc(Cc::A, miss);
    }

    Mem guestMemAtRdx() const { return Mem(kMemReg, RDX, 0); }

    /**
     * Open a memory op: bind the label its hint miss retries from and
     * return the miss blob's label.
     */
    int
    beginMemOp(uint32_t idx)
    {
        int retry = _em.newLabel();
        _em.bind(retry);
        _eflagsLive = false;
        return missBlob(idx, retry);
    }

    /** SETcc the four guest flag bytes from live EFLAGS. */
    void
    materializeFlags()
    {
        _em.setccM8(Cc::E, flagByte(0));
        _em.setccM8(Cc::S, flagByte(1));
        _em.setccM8(Cc::B, flagByte(2));
        _em.setccM8(Cc::O, flagByte(3));
        _eflagsLive = true;
    }

    /** Branch to @p target when @p c holds on the *guest* flags. */
    void
    emitCondJump(Cond c, int target)
    {
        if (_eflagsLive) {
            _em.jcc(mapCond(c), target);
            return;
        }
        // Rematerialize from the state.flags bytes (0/1 each).
        switch (c) {
          case Cond::Eq:
            _em.cmpM8I(flagByte(0), 0);
            _em.jcc(Cc::Ne, target);
            return;
          case Cond::Ne:
            _em.cmpM8I(flagByte(0), 0);
            _em.jcc(Cc::E, target);
            return;
          case Cond::B:
            _em.cmpM8I(flagByte(2), 0);
            _em.jcc(Cc::Ne, target);
            return;
          case Cond::Ae:
            _em.cmpM8I(flagByte(2), 0);
            _em.jcc(Cc::E, target);
            return;
          case Cond::Lt:
          case Cond::Ge:
            _em.movzxRM8(RAX, flagByte(1));
            _em.movzxRM8(RCX, flagByte(3));
            _em.aluRR32(kCmpLoad, RAX, RCX);
            _em.jcc(c == Cond::Lt ? Cc::Ne : Cc::E, target);
            return;
          case Cond::Le:
          case Cond::Gt:
            _em.movzxRM8(RAX, flagByte(1));
            _em.movzxRM8(RCX, flagByte(3));
            _em.aluRR32(kXorLoad, RAX, RCX);
            _em.movzxRM8(RCX, flagByte(0));
            _em.aluRR32(kOrLoad, RAX, RCX);
            _em.jcc(c == Cond::Le ? Cc::Ne : Cc::E, target);
            return;
          case Cond::Be:
          case Cond::A:
            _em.movzxRM8(RAX, flagByte(2));
            _em.movzxRM8(RCX, flagByte(0));
            _em.aluRR32(kOrLoad, RAX, RCX);
            _em.jcc(c == Cond::Be ? Cc::Ne : Cc::E, target);
            return;
        }
    }

    /** Fold the boundary deltas of @p op into VmStats (r12). */
    void
    emitFold(const TraceOp &op)
    {
        _em.addMI64(Mem(kStatsReg, _lay.statsGuestInsts), op.guestD);
        _em.addMI64(Mem(kStatsReg, _lay.statsHostInsts),
                    op.instIdx + 1);
        if (op.readsD != 0)
            _em.addMI64(Mem(kStatsReg, _lay.statsMemReads),
                        op.readsD);
        if (op.writesD != 0)
            _em.addMI64(Mem(kStatsReg, _lay.statsMemWrites),
                        op.writesD);
    }

    /** flush, call helper(frame, opIdx), reload; EFLAGS = retval. */
    void
    emitHelperCall(const void *helper, uint32_t opIdx)
    {
        flushRegs();
        _em.movRR64(RDI, kFrameReg);
        _em.movRI32(RSI, opIdx);
        _em.movRI64(RAX,
                    reinterpret_cast<uint64_t>(
                        const_cast<void *>(helper)));
        _em.callR(RAX);
        reloadRegs();
        _em.testRR32(RAX, RAX);
        _eflagsLive = false;
    }

    void compileOp(uint32_t idx, const TraceOp &op);
    void compileAluRR(uint8_t loadOp, const TraceOp &op);
    void compileAluRI(uint8_t immN, const TraceOp &op);
    void emitTailBlobs();
};

void
TraceCompiler::allocateRegisters()
{
    // One host register per guest register for the *whole* trace:
    // every helper-call site flushes and reloads the full allocated
    // set, so a host register that served two disjoint guest live
    // ranges would flush the wrong value into the expired range's
    // home. With eight allocatable hosts against the handful of
    // registers a hot loop actually touches, whole-trace assignment
    // of the most-used guests loses nothing.
    std::array<uint32_t, 16> uses{};
    for (const TraceOp &op : _tr.ops) {
        RegUse u = regUse(op.h);
        if (u.a)
            ++uses[op.a];
        if (u.b)
            ++uses[op.b];
        if (u.c)
            ++uses[op.c];
    }
    std::array<uint8_t, 16> order{};
    for (uint8_t g = 0; g < 16; ++g)
        order[g] = g;
    std::sort(order.begin(), order.end(),
              [&](uint8_t a, uint8_t b) {
                  if (uses[a] != uses[b])
                      return uses[a] > uses[b];
                  return a < b;
              });
    _hostOf.fill(kNoHostReg);
    for (size_t i = 0; i < kNumAllocatable; ++i) {
        uint8_t g = order[i];
        if (uses[g] == 0)
            break;
        _hostOf[g] = kAllocatable[i];
        _allocated.push_back(g);
    }
}

int
TraceCompiler::exitBlob(uint32_t code, uint32_t opIdx)
{
    int l = _em.newLabel();
    _exitBlobs.push_back({l, code, opIdx});
    return l;
}

int
TraceCompiler::missBlob(uint32_t opIdx, int retryLabel)
{
    _needSlow = true;
    int l = _em.newLabel();
    _missBlobs.push_back({l, opIdx, retryLabel});
    return l;
}

void
TraceCompiler::flushRegs()
{
    for (uint8_t g : _allocated)
        _em.movMR32(home(g), host(g));
}

void
TraceCompiler::reloadRegs()
{
    for (uint8_t g : _allocated)
        _em.movRM32(host(g), home(g));
}

/** a <- b op c|[c+imm2] for add/sub/and/or/xor (and cmp-less mul). */
void
TraceCompiler::compileAluRR(uint8_t loadOp, const TraceOp &op)
{
    // Two-address fast path: a == b and a lives in a register.
    if (op.a == op.b && isAlloc(op.a)) {
        if (isAlloc(op.c))
            _em.aluRR32(loadOp, host(op.a), host(op.c));
        else
            _em.aluRM32(loadOp, host(op.a), home(op.c));
        return;
    }
    uint8_t src = readReg(op.c, RCX);
    uint8_t vb = readReg(op.b, RAX);
    if (vb != RAX)
        _em.movRR32(RAX, vb);
    _em.aluRR32(loadOp, RAX, src);
    writeReg(op.a, RAX);
}

void
TraceCompiler::compileAluRI(uint8_t immN, const TraceOp &op)
{
    if (op.a == op.b && isAlloc(op.a)) {
        _em.aluRI32(immN, host(op.a), op.imm2);
        return;
    }
    uint8_t vb = readReg(op.b, RAX);
    if (vb != RAX)
        _em.movRR32(RAX, vb);
    _em.aluRI32(immN, RAX, op.imm2);
    writeReg(op.a, RAX);
}

void
TraceCompiler::compileOp(uint32_t idx, const TraceOp &op)
{
    const TraceH h = op.h;
    // ALU groups first (a contiguous enum range).
    if (const int aluIdx = traceAluIndex(h); aluIdx >= 0) {
        const int shape = aluIdx % 5; // RR RI RM MR MI
        const int kind = aluIdx / 5;  // Add..Divu (X-macro order)
        enum
        {
            kAdd, kSub, kAnd, kOr, kXor, kShl, kShr, kSar, kMul,
            kDivu
        };
        static constexpr uint8_t loadOps[] = {kAddLoad, kSubLoad,
                                              kAndLoad, kOrLoad,
                                              kXorLoad};
        static constexpr uint8_t immNs[] = {kAddN, kSubN, kAndN,
                                            kOrN, kXorN};
        static constexpr uint8_t shiftNs[] = {kShlN, kShrN, kSarN};
        const bool basic = kind <= kXor;
        const bool shift = kind >= kShl && kind <= kSar;

        if (shape == 0) { // a <- b op c
            _eflagsLive = false;
            if (basic) {
                compileAluRR(loadOps[kind], op);
            } else if (shift) {
                uint8_t cnt = readReg(op.c, RCX);
                if (cnt != RCX)
                    _em.movRR32(RCX, cnt);
                if (op.a == op.b && isAlloc(op.a)) {
                    _em.shiftRCl32(shiftNs[kind - kShl], host(op.a));
                } else {
                    uint8_t vb = readReg(op.b, RAX);
                    if (vb != RAX)
                        _em.movRR32(RAX, vb);
                    _em.shiftRCl32(shiftNs[kind - kShl], RAX);
                    writeReg(op.a, RAX);
                }
            } else if (kind == kMul) {
                uint8_t src = readReg(op.c, RCX);
                uint8_t vb = readReg(op.b, RAX);
                if (vb != RAX)
                    _em.movRR32(RAX, vb);
                _em.imulRR32(RAX, src);
                writeReg(op.a, RAX);
            } else { // Divu: b/c with c==0 -> 0
                uint8_t div = readReg(op.c, RCX);
                uint8_t vb = readReg(op.b, RAX);
                if (vb != RAX)
                    _em.movRR32(RAX, vb);
                int zero = _em.newLabel(), done = _em.newLabel();
                _em.testRR32(div, div);
                _em.jcc(Cc::E, zero);
                _em.aluRR32(kXorLoad, RDX, RDX);
                _em.divR32(div);
                _em.jmp(done);
                _em.bind(zero);
                _em.aluRR32(kXorLoad, RAX, RAX);
                _em.bind(done);
                writeReg(op.a, RAX);
            }
            return;
        }
        if (shape == 1) { // a <- b op imm2
            _eflagsLive = false;
            if (basic) {
                compileAluRI(immNs[kind], op);
            } else if (shift) {
                uint8_t cnt = static_cast<uint8_t>(op.imm2 & 31);
                if (op.a == op.b && isAlloc(op.a)) {
                    _em.shiftRI32(shiftNs[kind - kShl], host(op.a),
                                  cnt);
                } else {
                    uint8_t vb = readReg(op.b, RAX);
                    if (vb != RAX)
                        _em.movRR32(RAX, vb);
                    _em.shiftRI32(shiftNs[kind - kShl], RAX, cnt);
                    writeReg(op.a, RAX);
                }
            } else if (kind == kMul) {
                uint8_t vb = readReg(op.b, RAX);
                _em.imulRRI32(RAX, vb, op.imm2);
                writeReg(op.a, RAX);
            } else { // Divu by constant
                if (op.imm2 == 0) {
                    writeRegImm(op.a, 0);
                } else {
                    uint8_t vb = readReg(op.b, RAX);
                    if (vb != RAX)
                        _em.movRR32(RAX, vb);
                    _em.movRI32(RCX, op.imm2);
                    _em.aluRR32(kXorLoad, RDX, RDX);
                    _em.divR32(RCX);
                    writeReg(op.a, RAX);
                }
            }
            return;
        }

        // Memory shapes: the op starts at a retry label (hint misses
        // call the probe, then re-run the op from here).
        int miss = beginMemOp(idx);
        if (shape == 2) { // a <- b op [R(c)+imm2]
            emitAddr(op.c, op.imm2);
            emitHintCheck(idx, miss);
            if (basic && op.a == op.b && isAlloc(op.a)) {
                _em.aluRM32(loadOps[kind], host(op.a),
                            guestMemAtRdx());
                return;
            }
            _em.movRM32(RCX, guestMemAtRdx()); // v
            uint8_t vb = readReg(op.b, RAX);
            if (vb != RAX)
                _em.movRR32(RAX, vb);
            if (basic) {
                _em.aluRR32(loadOps[kind], RAX, RCX);
            } else if (shift) {
                _em.shiftRCl32(shiftNs[kind - kShl], RAX);
            } else if (kind == kMul) {
                _em.imulRR32(RAX, RCX);
            } else { // Divu
                int zero = _em.newLabel(), done = _em.newLabel();
                _em.testRR32(RCX, RCX);
                _em.jcc(Cc::E, zero);
                _em.aluRR32(kXorLoad, RDX, RDX);
                _em.divR32(RCX);
                _em.jmp(done);
                _em.bind(zero);
                _em.aluRR32(kXorLoad, RAX, RAX);
                _em.bind(done);
            }
            writeReg(op.a, RAX);
            return;
        }
        // Shapes 3/4: slot <- alu(slot, src) at [R(a)+imm].
        emitAddr(op.a, op.imm);
        emitHintCheck(idx, miss);
        _em.movRM32(RAX, guestMemAtRdx()); // v
        bool addrClobbered = false;
        if (shape == 3) { // src = R(c)
            if (basic) {
                if (isAlloc(op.c))
                    _em.aluRR32(loadOps[kind], RAX, host(op.c));
                else
                    _em.aluRM32(loadOps[kind], RAX, home(op.c));
            } else if (shift) {
                uint8_t cnt = readReg(op.c, RCX);
                if (cnt != RCX)
                    _em.movRR32(RCX, cnt);
                _em.shiftRCl32(shiftNs[kind - kShl], RAX);
            } else if (kind == kMul) {
                uint8_t src = readReg(op.c, RCX);
                _em.imulRR32(RAX, src);
            } else { // Divu
                uint8_t div = readReg(op.c, RCX);
                if (div != RCX)
                    _em.movRR32(RCX, div);
                int zero = _em.newLabel(), done = _em.newLabel();
                _em.testRR32(RCX, RCX);
                _em.jcc(Cc::E, zero);
                _em.aluRR32(kXorLoad, RDX, RDX);
                _em.divR32(RCX);
                _em.jmp(done);
                _em.bind(zero);
                _em.aluRR32(kXorLoad, RAX, RAX);
                _em.bind(done);
                addrClobbered = true;
            }
        } else { // shape 4: src = imm2
            if (basic) {
                _em.aluRI32(immNs[kind], RAX, op.imm2);
            } else if (shift) {
                _em.shiftRI32(shiftNs[kind - kShl], RAX,
                              static_cast<uint8_t>(op.imm2 & 31));
            } else if (kind == kMul) {
                _em.imulRRI32(RAX, RAX, op.imm2);
            } else { // Divu
                if (op.imm2 == 0) {
                    _em.aluRR32(kXorLoad, RAX, RAX);
                } else {
                    _em.movRI32(RCX, op.imm2);
                    _em.aluRR32(kXorLoad, RDX, RDX);
                    _em.divR32(RCX);
                    addrClobbered = true;
                }
            }
        }
        if (addrClobbered)
            emitAddr(op.a, op.imm); // div used edx; R(a) unchanged
        _em.movMR32(guestMemAtRdx(), RAX);
        return;
    }

    switch (h) {
      case TraceH::MovRR:
        if (isAlloc(op.a) && isAlloc(op.b)) {
            _em.movRR32(host(op.a), host(op.b));
        } else if (isAlloc(op.a)) {
            _em.movRM32(host(op.a), home(op.b));
        } else if (isAlloc(op.b)) {
            _em.movMR32(home(op.a), host(op.b));
        } else {
            _em.movRM32(RAX, home(op.b));
            _em.movMR32(home(op.a), RAX);
        }
        return;

      case TraceH::MovRI:
        writeRegImm(op.a, op.imm);
        return;

      case TraceH::MovRM:
      case TraceH::MovbRM: {
        int miss = beginMemOp(idx);
        emitAddr(op.b, op.imm);
        emitHintCheck(idx, miss);
        const uint8_t dst = isAlloc(op.a) ? host(op.a) : uint8_t{RAX};
        if (h == TraceH::MovbRM)
            _em.movzxRM8(dst, guestMemAtRdx());
        else
            _em.movRM32(dst, guestMemAtRdx());
        if (!isAlloc(op.a))
            _em.movMR32(home(op.a), RAX);
        return;
      }

      case TraceH::MovMR:
      case TraceH::MovbMR: {
        int miss = beginMemOp(idx);
        emitAddr(op.a, op.imm);
        emitHintCheck(idx, miss);
        uint8_t src = readReg(op.b, RAX);
        if (h == TraceH::MovbMR)
            _em.movMR8(guestMemAtRdx(), src);
        else
            _em.movMR32(guestMemAtRdx(), src);
        return;
      }

      case TraceH::MovMI:
      case TraceH::MovbMI: {
        int miss = beginMemOp(idx);
        emitAddr(op.a, op.imm);
        emitHintCheck(idx, miss);
        if (h == TraceH::MovbMI)
            _em.movMI8(guestMemAtRdx(), static_cast<uint8_t>(op.imm2));
        else
            _em.movMI32(guestMemAtRdx(), op.imm2);
        return;
      }

      case TraceH::Lea:
        if (isAlloc(op.a)) {
            if (isAlloc(op.b)) {
                _em.leaRM32(host(op.a),
                            Mem(host(op.b),
                                static_cast<int32_t>(op.imm)));
            } else {
                _em.movRM32(host(op.a), home(op.b));
                if (op.imm != 0)
                    _em.leaRM32(host(op.a),
                                Mem(host(op.a),
                                    static_cast<int32_t>(op.imm)));
            }
        } else {
            uint8_t vb = readReg(op.b, RAX);
            if (op.imm != 0) {
                _em.leaRM32(RAX,
                            Mem(vb, static_cast<int32_t>(op.imm)));
                vb = RAX;
            }
            _em.movMR32(home(op.a), vb);
        }
        return;

      case TraceH::MovHi:
        _eflagsLive = false;
        if (isAlloc(op.a)) {
            _em.aluRI32(kAndN, host(op.a), 0xffffu);
            _em.aluRI32(kOrN, host(op.a), op.imm << 16);
        } else {
            _em.aluMI32(kAndN, home(op.a), 0xffffu);
            _em.aluMI32(kOrN, home(op.a), op.imm << 16);
        }
        return;

      case TraceH::CmpRR:
      case TraceH::TestRR: {
        uint8_t vb = readReg(op.b, RAX);
        if (h == TraceH::CmpRR) {
            if (isAlloc(op.c))
                _em.aluRR32(kCmpLoad, vb, host(op.c));
            else
                _em.aluRM32(kCmpLoad, vb, home(op.c));
        } else {
            if (isAlloc(op.c))
                _em.testRR32(vb, host(op.c));
            else
                _em.testRM32(vb, home(op.c));
        }
        materializeFlags();
        return;
      }

      case TraceH::CmpRI:
      case TraceH::TestRI: {
        uint8_t vb = readReg(op.b, RAX);
        if (h == TraceH::CmpRI)
            _em.aluRI32(kCmpN, vb, op.imm2);
        else
            _em.testRI32(vb, op.imm2);
        materializeFlags();
        return;
      }

      case TraceH::CmpRM:
      case TraceH::TestRM: {
        int miss = beginMemOp(idx);
        emitAddr(op.c, op.imm2);
        emitHintCheck(idx, miss);
        _em.movRM32(RCX, guestMemAtRdx()); // v
        uint8_t vb = readReg(op.b, RAX);
        if (h == TraceH::CmpRM)
            _em.aluRR32(kCmpLoad, vb, RCX);
        else
            _em.testRR32(vb, RCX);
        materializeFlags();
        return;
      }

      case TraceH::CmpMR:
      case TraceH::CmpMI:
      case TraceH::TestMR:
      case TraceH::TestMI: {
        int miss = beginMemOp(idx);
        emitAddr(op.b, op.imm);
        emitHintCheck(idx, miss);
        _em.movRM32(RAX, guestMemAtRdx()); // v
        if (h == TraceH::CmpMR) {
            if (isAlloc(op.c))
                _em.aluRR32(kCmpLoad, RAX, host(op.c));
            else
                _em.aluRM32(kCmpLoad, RAX, home(op.c));
        } else if (h == TraceH::CmpMI) {
            _em.aluRI32(kCmpN, RAX, op.imm2);
        } else if (h == TraceH::TestMR) {
            if (isAlloc(op.c))
                _em.testRR32(RAX, host(op.c));
            else
                _em.testRM32(RAX, home(op.c));
        } else {
            _em.testRI32(RAX, op.imm2);
        }
        materializeFlags();
        return;
      }

      case TraceH::PushR:
      case TraceH::PushI: {
        int miss = beginMemOp(idx);
        emitAddr(op.a, static_cast<uint32_t>(-4)); // sp - kWordSize
        emitHintCheck(idx, miss);
        if (h == TraceH::PushR) {
            uint8_t src = readReg(op.b, RAX);
            _em.movMR32(guestMemAtRdx(), src);
        } else {
            _em.movMI32(guestMemAtRdx(), op.imm);
        }
        writeReg(op.a, RDX); // sp commits only after the store
        return;
      }

      case TraceH::PopR: {
        int miss = beginMemOp(idx);
        emitAddr(op.a, 0);
        emitHintCheck(idx, miss);
        _em.movRM32(RAX, guestMemAtRdx()); // v
        _em.leaRM32(RCX, Mem(RDX, 4));     // sp + kWordSize
        writeReg(op.a, RCX);
        writeReg(op.b, RAX); // b == a: the popped value wins
        return;
      }

      case TraceH::JccGuard: {
        // Taken => off-trace side exit; EFLAGS survive a not-taken
        // guard, so a following SegBranchCc can reuse them.
        int side = exitBlob(kExitSide, idx);
        emitCondJump(op.cond, side);
        return;
      }

      case TraceH::SegBranchCc: {
        int side = exitBlob(kExitSide, idx);
        emitCondJump(condInvert(op.cond), side);
        [[fallthrough]];
      }
      case TraceH::SegBranch: {
        _eflagsLive = false;
        emitFold(op);
        _em.incM64(Mem(kStatsReg, _lay.statsTraceFollows));
        _em.movRM64(RAX, Mem(kStatsReg, _lay.statsGuestInsts));
        _em.cmpRM64(RAX, frameMem(_lay.frameBudget));
        _em.jcc(Cc::Ae, exitBlob(kExitBudget, idx));
        if (op.jumpTo != idx + 1)
            _em.jmp(_opLabel[op.jumpTo]);
        return;
      }

      case TraceH::SegCall: {
        emitHelperCall(_lay.segCallHelper, idx);
        _em.jcc(Cc::E, _epilogue); // stop/abandon recorded
        if (op.jumpTo != idx + 1)
            _em.jmp(_opLabel[op.jumpTo]);
        return;
      }

      case TraceH::TraceEnd: {
        _em.movMI32(frameMem(_lay.frameExitCode), kExitEnd);
        _em.movMI32(frameMem(_lay.frameExitOp), idx);
        _em.jmp(_epilogue);
        return;
      }

      default:
        // Formation admits only ops with a template (superblock.cc).
        hipstr_panic("trace JIT: op shape %u has no template",
                     static_cast<unsigned>(h));
    }
}

void
TraceCompiler::emitTailBlobs()
{
    // Exit blobs: record (code, op) and unwind through the epilogue.
    for (const ExitBlob &b : _exitBlobs) {
        _em.bind(b.label);
        _em.movMI32(frameMem(_lay.frameExitCode), b.code);
        _em.movMI32(frameMem(_lay.frameExitOp), b.opIdx);
        _em.jmp(_epilogue);
    }
    // Hint-miss blobs: probe (refill or record fault), then retry.
    for (const MissBlob &b : _missBlobs) {
        _em.bind(b.label);
        _em.movRI32(RAX, b.opIdx);
        _em.callLabel(_sharedSlow);
        _em.jmp(b.retryLabel);
    }
    if (_needSlow) {
        // rsp is 8 (mod 16) here: entered by call from the body.
        _em.bind(_sharedSlow);
        flushRegs(); // probe computes addresses from state.regs
        _em.movRR64(RDI, kFrameReg);
        _em.movRR32(RSI, RAX);
        _em.subRsp8(8);
        _em.movRI64(RAX,
                    reinterpret_cast<uint64_t>(const_cast<void *>(
                        _lay.memProbeHelper)));
        _em.callR(RAX);
        _em.addRsp8(8);
        reloadRegs(); // the C call clobbered caller-saved hosts
        _em.testRR32(RAX, RAX);
        int unwind = _em.newLabel();
        _em.jcc(Cc::E, unwind);
        _em.ret(); // hint refilled: retry the op
        _em.bind(unwind);
        _em.addRsp8(8); // drop the retry return address
        _em.jmp(_epilogue);
    }
    // Epilogue: flush guest registers, restore, return.
    _em.bind(_epilogue);
    flushRegs();
    _em.addRsp8(8);
    _em.popR(R15);
    _em.popR(R14);
    _em.popR(R13);
    _em.popR(R12);
    _em.popR(RBP);
    _em.popR(RBX);
    _em.ret();
}

bool
TraceCompiler::compile()
{
    const size_t n = _tr.ops.size();
    if (n == 0 || n > 0xffffff)
        return false;
    for (const TraceOp &op : _tr.ops) {
        if (op.h >= TraceH::NumHandlers)
            return false;
        // addMI64 sign-extends its imm32: deltas must stay positive.
        if (op.guestD >= 0x80000000u || op.readsD >= 0x80000000u ||
            op.writesD >= 0x80000000u ||
            op.instIdx + 1 >= 0x80000000u) {
            return false;
        }
    }

    allocateRegisters();
    _epilogue = _em.newLabel();
    _sharedSlow = _em.newLabel();

    // Labels for every segment-edge target (and memory-op retries,
    // created inline).
    _opLabel.assign(n, -1);
    auto needLabel = [&](uint32_t t) {
        if (t < n && _opLabel[t] < 0)
            _opLabel[t] = _em.newLabel();
    };
    for (const TraceOp &op : _tr.ops) {
        if (op.h == TraceH::SegBranch || op.h == TraceH::SegBranchCc ||
            op.h == TraceH::SegCall) {
            if (op.jumpTo >= n)
                return false;
            needLabel(op.jumpTo);
        }
    }

    // Prologue: save callee-saved hosts, adopt the pinned registers,
    // load the allocated guest registers. rsp: entry 8 (mod 16),
    // +6 pushes, -8 => 0 (mod 16) throughout the body, as the
    // SysV ABI requires at helper call sites.
    _em.pushR(RBX);
    _em.pushR(RBP);
    _em.pushR(R12);
    _em.pushR(R13);
    _em.pushR(R14);
    _em.pushR(R15);
    _em.subRsp8(8);
    _em.movRR64(kFrameReg, RDI);
    _em.movRM64(kStatsReg, frameMem(_lay.frameStats));
    _em.movRM64(kMemReg, frameMem(_lay.frameMemBase));
    _em.movRM64(kRegsReg, frameMem(_lay.frameRegs));
    _em.movRM64(kHintReg, frameMem(_lay.frameOpHints));
    reloadRegs();

    for (uint32_t i = 0; i < n; ++i) {
        if (_opLabel[i] >= 0) {
            _em.bind(_opLabel[i]);
            // Jump targets merge control flow: EFLAGS unknown.
            _eflagsLive = false;
        }
        compileOp(i, _tr.ops[i]);
    }
    emitTailBlobs();
    _em.finalize();
    return true;
}

} // namespace

bool
compileTrace(const SuperTrace &tr, const CompileLayout &lay,
             Emitter &em, CompileScratch &scratch)
{
    return TraceCompiler(tr, lay, em, scratch).compile();
}

} // namespace hipstr::jit
