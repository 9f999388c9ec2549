/**
 * @file
 * ISA-layer unit tests: instruction semantics on hand-assembled
 * programs, flags and conditions, the interpreter's decode cache,
 * memory permissions, span walks, code epochs and journaling, and the
 * guest OS interface.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>

#include "isa/codec.hh"
#include "isa/guest_os.hh"
#include "isa/interp.hh"
#include "isa/memory.hh"
#include "support/random.hh"
#include "test_util.hh"

namespace hipstr
{
namespace
{

/** Assemble a program into memory at the ISA's code base and run. */
struct MiniMachine
{
    Memory mem;
    GuestOs os;
    IsaKind isa;

    explicit MiniMachine(IsaKind k) : isa(k)
    {
        mem.setRegion(layout::codeBase(isa), 0x1000, PermRX, "code");
        mem.setRegion(layout::kStackLimit,
                      layout::kStackTop - layout::kStackLimit,
                      PermRW, "stack");
        mem.setRegion(layout::kGlobalsBase, 0x1000, PermRW, "data");
    }

    Addr
    assemble(const std::vector<MachInst> &insts)
    {
        std::vector<uint8_t> bytes;
        Addr pc = layout::codeBase(isa);
        for (MachInst mi : insts) {
            encodeInst(isa, mi, pc + Addr(bytes.size()), bytes);
        }
        mem.rawWriteBytes(pc, bytes.data(), bytes.size());
        return pc;
    }

    RunResult
    run(const std::vector<MachInst> &insts,
        uint64_t max_insts = 10'000)
    {
        Addr entry = assemble(insts);
        Interpreter interp(isa, mem, os);
        interp.state.pc = entry;
        interp.state.setSp(layout::kStackTop - 64);
        RunResult r = interp.run(max_insts);
        final = interp.state;
        return r;
    }

    MachineState final{ IsaKind::Cisc };

    /** ISA-portable 32-bit constant materialization. */
    std::vector<MachInst>
    movImm(Reg rd, int32_t v) const
    {
        if (isa == IsaKind::Cisc ||
            (v >= -32768 && v <= 32767)) {
            return { MachInst::movRI(rd, v) };
        }
        return { MachInst::movRI(
                     rd, static_cast<int32_t>(
                             static_cast<int16_t>(v & 0xffff))),
                 MachInst::movHi(
                     rd, static_cast<int32_t>(
                             (static_cast<uint32_t>(v) >> 16) &
                             0xffff)) };
    }
};

/** Concatenate instruction snippets. */
static std::vector<MachInst>
cat(std::initializer_list<std::vector<MachInst>> parts)
{
    std::vector<MachInst> out;
    for (const auto &p : parts)
        out.insert(out.end(), p.begin(), p.end());
    return out;
}

class IsaSemantics : public ::testing::TestWithParam<IsaKind>
{
};

TEST_P(IsaSemantics, AluBasics)
{
    MiniMachine m(GetParam());
    Reg a = 0, b2 = 1;
    auto r = m.run({
        MachInst::movRI(a, 21),
        MachInst::movRI(b2, 4),
        MachInst::alu(Op::Mul, a, a, Operand::makeReg(b2)),
        MachInst::alu(Op::Add, a, a, Operand::makeImm(16)),
        MachInst::alu(Op::Shr, a, a, Operand::makeImm(2)),
        MachInst::halt(),
    });
    EXPECT_EQ(r.reason, StopReason::Halted);
    EXPECT_EQ(m.final.reg(0), (21u * 4 + 16) >> 2);
}

TEST_P(IsaSemantics, DivideByZeroYieldsZero)
{
    MiniMachine m(GetParam());
    auto r = m.run({
        MachInst::movRI(0, 100),
        MachInst::movRI(1, 0),
        MachInst::alu(Op::Divu, 0, 0, Operand::makeReg(1)),
        MachInst::halt(),
    });
    EXPECT_EQ(r.reason, StopReason::Halted);
    EXPECT_EQ(m.final.reg(0), 0u);
}

TEST_P(IsaSemantics, SignedAndUnsignedConditions)
{
    // -1 < 1 signed but -1 > 1 unsigned.
    MiniMachine m(GetParam());
    Addr base = layout::codeBase(GetParam());
    // Layout: cmp; jlt +L1; halt; L1: cmp; ja +L2; halt; L2: mov;halt
    std::vector<MachInst> insts = {
        MachInst::movRI(0, -1),
        MachInst::movRI(1, 1),
        MachInst::cmp(Operand::makeReg(0), Operand::makeReg(1)),
        MachInst::jcc(Cond::Lt, 0), // patched below
        MachInst::halt(),
        MachInst::cmp(Operand::makeReg(0), Operand::makeReg(1)),
        MachInst::jcc(Cond::A, 0), // patched below
        MachInst::halt(),
        MachInst::movRI(2, 77),
        MachInst::halt(),
    };
    // Compute layout to patch branch targets.
    std::vector<Addr> at(insts.size());
    Addr pc = base;
    for (size_t i = 0; i < insts.size(); ++i) {
        at[i] = pc;
        pc += encodedSize(GetParam(), insts[i]);
    }
    insts[3].target = at[5];
    insts[6].target = at[8];

    auto r = m.run(insts);
    EXPECT_EQ(r.reason, StopReason::Halted);
    EXPECT_EQ(m.final.reg(2), 77u);
}

TEST_P(IsaSemantics, CallPlacesReturnAddressOnStackPath)
{
    // call f; halt; f: ret  — after the call/ret round trip the halt
    // executes. On Cisc the RA is pushed, on Risc it rides LR and the
    // callee is a bare POPRET... so push it manually for Risc.
    IsaKind isa = GetParam();
    MiniMachine m(isa);
    Addr base = layout::codeBase(isa);

    std::vector<MachInst> insts;
    if (isa == IsaKind::Cisc) {
        insts = {
            MachInst::call(0), // patched
            MachInst::movRI(3, 9),
            MachInst::halt(),
            MachInst::ret(),
        };
    } else {
        // Risc: call sets LR; the callee stores LR at the stack top
        // and pop-returns, mirroring the compiler's fused epilogue.
        insts = {
            MachInst::call(0), // patched
            MachInst::movRI(3, 9),
            MachInst::halt(),
            // callee:
            MachInst::alu(Op::Sub, risc::SP, risc::SP,
                          Operand::makeImm(4)),
            MachInst::store(risc::SP, 0, risc::LR),
            MachInst::ret(),
        };
    }
    std::vector<Addr> at(insts.size());
    Addr pc = base;
    for (size_t i = 0; i < insts.size(); ++i) {
        at[i] = pc;
        pc += encodedSize(isa, insts[i]);
    }
    insts[0].target = at[3];
    auto r = m.run(insts);
    EXPECT_EQ(r.reason, StopReason::Halted);
    EXPECT_EQ(m.final.reg(3), 9u);
}

TEST_P(IsaSemantics, ByteAccessZeroExtends)
{
    MiniMachine m(GetParam());
    Addr g = layout::kGlobalsBase;
    m.mem.rawWrite32(g, 0xdeadbeef);
    auto r = m.run(cat({
        m.movImm(1, static_cast<int32_t>(g)),
        { MachInst::loadByte(0, 1, 3), // 0xde
          MachInst::storeByte(1, 8, 0),
          MachInst::load(2, 1, 8),
          MachInst::halt() },
    }));
    EXPECT_EQ(r.reason, StopReason::Halted);
    EXPECT_EQ(m.final.reg(0), 0xdeu);
    EXPECT_EQ(m.final.reg(2), 0xdeu);
}

TEST_P(IsaSemantics, WritingCodeFaults)
{
    MiniMachine m(GetParam());
    auto r = m.run(cat({
        m.movImm(1, static_cast<int32_t>(
                        layout::codeBase(GetParam()))),
        { MachInst::store(1, 0, 0), MachInst::halt() },
    }));
    EXPECT_EQ(r.reason, StopReason::Fault);
}

TEST_P(IsaSemantics, JumpToUnmappedCrashes)
{
    // 0xffffffff is past the address space too, and must not pass for
    // an empty line of the interpreter's decode cache.
    for (Addr target : { Addr(0x00700000), Addr(0xffffffff) }) {
        MiniMachine m(GetParam());
        auto r = m.run(cat({
            m.movImm(1, static_cast<int32_t>(target)),
            { MachInst::jmpInd(1) },
        }));
        EXPECT_EQ(r.reason, StopReason::BadInst) << std::hex << target;
        EXPECT_EQ(r.stopPc, target);
    }
}

// ------------------------------------------------------------------
// Decode cache. The interpreter decodes each pc once; a code patch
// (raw write) or an ISA switch between two run() calls must drop the
// cached decodes, so resuming equals a fresh interpreter started from
// the same state on the same image.
// ------------------------------------------------------------------

/** Index of `add r0, 1`, the instruction the patch test rewrites. */
constexpr size_t kLoopAdd = 3;

/** Byte offset of insts[kLoopAdd] from the start of the program. */
Addr
loopOffset(IsaKind isa, const std::vector<MachInst> &insts)
{
    Addr off = 0;
    for (size_t i = 0; i < kLoopAdd; ++i)
        off += encodedSize(isa, insts[i]);
    return off;
}

/** r0 += 1 fifty times in a counted loop, then halt. */
std::vector<MachInst>
countingLoop(IsaKind isa)
{
    std::vector<MachInst> insts = {
        MachInst::movRI(0, 0),
        MachInst::movRI(1, 0),
        MachInst::movRI(2, 50),
        MachInst::alu(Op::Add, 0, 0, Operand::makeImm(1)),
        MachInst::alu(Op::Add, 1, 1, Operand::makeImm(1)),
        MachInst::cmp(Operand::makeReg(1), Operand::makeReg(2)),
        MachInst::jcc(Cond::Lt, 0), // patched below
        MachInst::halt(),
    };
    insts[6].target = layout::codeBase(isa) + loopOffset(isa, insts);
    return insts;
}

/** Run @p a and @p b to a stop; both must end identically. */
RunResult
expectSameRun(Interpreter &a, Interpreter &b)
{
    RunResult ra = a.run(10'000);
    RunResult rb = b.run(10'000);
    EXPECT_EQ(ra.reason, rb.reason);
    EXPECT_EQ(ra.instsExecuted, rb.instsExecuted);
    EXPECT_EQ(ra.stopPc, rb.stopPc);
    EXPECT_EQ(a.state.isa, b.state.isa);
    EXPECT_EQ(a.state.regs, b.state.regs);
    EXPECT_TRUE(a.state.flags == b.state.flags);
    EXPECT_EQ(a.state.pc, b.state.pc);
    return ra;
}

TEST_P(IsaSemantics, DecodeCacheSeesRawCodePatch)
{
    const IsaKind isa = GetParam();
    const std::vector<MachInst> prog = countingLoop(isa);
    MiniMachine m(isa), fresh(isa);
    const Addr entry = m.assemble(prog);
    fresh.assemble(prog);

    Interpreter interp(isa, m.mem, m.os);
    interp.state.pc = entry;
    interp.state.setSp(layout::kStackTop - 64);
    ASSERT_EQ(interp.run(20).reason, StopReason::StepLimit);

    // Rewrite `add r0, 1` into `add r0, 7` in both images, one
    // rawWrite8 per changed byte, while the loop body is cached.
    const Addr at = entry + loopOffset(isa, prog);
    MachInst add7 = prog[kLoopAdd];
    add7.src2 = Operand::makeImm(7);
    std::vector<uint8_t> before, after;
    encodeInst(isa, prog[kLoopAdd], at, before);
    encodeInst(isa, add7, at, after);
    ASSERT_EQ(before.size(), after.size());
    ASSERT_NE(before, after);
    for (size_t i = 0; i < after.size(); ++i) {
        if (before[i] != after[i]) {
            m.mem.rawWrite8(at + Addr(i), after[i]);
            fresh.mem.rawWrite8(at + Addr(i), after[i]);
        }
    }

    Interpreter ref(isa, fresh.mem, fresh.os);
    ref.state = interp.state;
    EXPECT_EQ(expectSameRun(interp, ref).reason, StopReason::Halted);
    EXPECT_GT(interp.state.reg(0), 50u); // the patched add ran
}

TEST_P(IsaSemantics, DecodeCacheSeesIsaSwitch)
{
    // Same bytes, same pc, other decoder: nothing decoded under the
    // first ISA may be reused under the second.
    const IsaKind isa = GetParam();
    const IsaKind other =
        isa == IsaKind::Risc ? IsaKind::Cisc : IsaKind::Risc;
    const std::vector<MachInst> prog = countingLoop(isa);
    MiniMachine m(isa), fresh(isa);
    const Addr entry = m.assemble(prog);
    fresh.assemble(prog);

    Interpreter interp(isa, m.mem, m.os);
    interp.state.pc = entry;
    interp.state.setSp(layout::kStackTop - 64);
    ASSERT_EQ(interp.run(20).reason, StopReason::StepLimit);

    MachineState switched(other);
    switched.pc = interp.state.pc;
    switched.setSp(layout::kStackTop - 64);
    interp.state = switched;
    Interpreter ref(other, fresh.mem, fresh.os);
    ref.state = switched;
    expectSameRun(interp, ref);
}

INSTANTIATE_TEST_SUITE_P(BothIsas, IsaSemantics,
                         ::testing::Values(IsaKind::Risc,
                                           IsaKind::Cisc),
                         [](const auto &info) {
                             return isaName(info.param);
                         });

TEST(Memory, JournalRollsBackExactly)
{
    Memory mem;
    mem.setRegion(0x1000, 0x1000, PermRW, "scratch");
    mem.write32(0x1000, 0x11111111);
    mem.write32(0x1004, 0x22222222);
    mem.beginJournal();
    mem.write32(0x1000, 0xaaaaaaaa);
    mem.write8(0x1005, 0xbb);
    mem.write16(0x1008, 0xcccc);
    mem.rollback();
    EXPECT_EQ(mem.read32(0x1000), 0x11111111u);
    EXPECT_EQ(mem.read32(0x1004), 0x22222222u);
    EXPECT_EQ(mem.read16(0x1008), 0u);
}

TEST(Memory, PermissionLayering)
{
    Memory mem;
    mem.setRegion(0x1000, 0x2000, PermRW, "outer");
    mem.setRegion(0x1800, 0x100, PermR, "inner"); // later wins
    EXPECT_EQ(mem.permAt(0x1400), PermRW);
    EXPECT_EQ(mem.permAt(0x1880), PermR);
    EXPECT_THROW(mem.write32(0x1880, 1), Memory::Fault);
    EXPECT_NO_THROW(mem.write32(0x1400, 1));
}

// ------------------------------------------------------------------
// Span walks. fetchBytes and rangeAccessible resolve whole permission
// spans; both must agree with the per-byte rule they replaced at every
// address near every span edge.
// ------------------------------------------------------------------

/** fetchBytes by the per-byte rule: copy while executable. */
size_t
fetchPerByte(const Memory &mem, Addr addr, uint8_t *out, size_t len)
{
    size_t n = 0;
    while (n < len && uint64_t(addr) + n < mem.size() &&
           (mem.permAt(addr + Addr(n)) & PermX)) {
        out[n] = mem.data()[addr + n];
        ++n;
    }
    return n;
}

/** rangeAccessible by the per-byte rule. */
bool
accessiblePerByte(const Memory &mem, Addr addr, uint32_t len,
                  Perm needed)
{
    if (uint64_t(addr) + len > mem.size())
        return false;
    for (uint64_t a = addr; a < uint64_t(addr) + len; ++a)
        if ((mem.permAt(Addr(a)) & needed) != needed)
            return false;
    return true;
}

TEST(Memory, SpanWalksMatchPerByteRuleNearEveryEdge)
{
    Memory mem;
    const Addr end = layout::kMemEnd;
    mem.setRegion(0x1000, 0x40, PermRX, "code");   // RX next to R
    mem.setRegion(0x1040, 0x40, PermR, "rodata");
    mem.setRegion(0x2000, 0x40, PermRX, "code-a"); // merge into one
    mem.setRegion(0x2040, 0x40, PermRX, "code-b"); //   RX span
    mem.setRegion(0x3000, 0x40, PermRX, "code-c"); // two executable
    mem.setRegion(0x3040, 0x40, PermX, "xonly");   //   spans in a row
    mem.setRegion(0x3080, 0x40, PermRW, "data");
    mem.setRegion(end - 0x40, 0x40, PermRX, "tail"); // ends the space
    std::vector<uint8_t> pattern(0x4000);
    for (size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = uint8_t(i * 37 + 11);
    mem.rawWriteBytes(0, pattern.data(), pattern.size());
    mem.rawWriteBytes(end - 0x100, pattern.data(), 0x100);

    const Addr edges[] = { 0x1000, 0x1040, 0x1080, 0x2000, 0x2040,
                           0x2080, 0x3000, 0x3040, 0x3080, 0x30c0,
                           end - 0x40, end };
    const Perm perms[] = { PermR, PermW, PermX, PermRX, PermRW };
    for (Addr edge : edges) {
        for (Addr addr = edge - 16; addr < edge + 16; ++addr) {
            for (uint32_t len = 1; len <= 16; ++len) {
                uint8_t got[16] = {}, want[16] = {};
                const size_t n = mem.fetchBytes(addr, got, len);
                ASSERT_EQ(n, fetchPerByte(mem, addr, want, len))
                    << std::hex << "addr 0x" << addr << " len " << len;
                ASSERT_EQ(0, std::memcmp(got, want, n))
                    << std::hex << "addr 0x" << addr << " len " << len;
                for (Perm p : perms) {
                    ASSERT_EQ(mem.rangeAccessible(addr, len, p),
                              accessiblePerByte(mem, addr, len, p))
                        << std::hex << "addr 0x" << addr << " len "
                        << len << " perm " << int(p);
                }
            }
        }
    }
}

TEST(Memory, SpanProbe8MatchesTryAccessNearEveryEdge)
{
    // The trace JIT's byte ops refill their hint windows through
    // probe8Span. The probe must agree with tryRead8/tryWrite8, and
    // every address of a refilled window must pass the byte access.
    Memory mem;
    const Addr end = layout::kMemEnd;
    mem.setRegion(0x1000, 0x40, PermRW, "data");  // RW | R
    mem.setRegion(0x1040, 0x40, PermR, "rodata"); // R | unmapped
    mem.setRegion(0x2000, 0x40, PermRW, "heap");  // RW | RX
    mem.setRegion(0x2040, 0x40, PermRX, "code");
    mem.setRegion(end - 0x40, 0x40, PermRW, "tail"); // ends the space

    auto byteAccess = [&](Addr a, Perm p) {
        if (p == PermR) {
            uint8_t v = 0;
            return mem.tryRead8(a, v);
        }
        const uint8_t v = a < mem.size() ? mem.rawRead8(a) : 0;
        return mem.tryWrite8(a, v); // rewrites the byte it holds
    };

    const Addr edges[] = { 0x1000, 0x1040, 0x1080, 0x2000, 0x2040,
                           0x2080, end - 0x40, end - 4, end };
    for (Addr edge : edges) {
        for (Addr addr = edge - 16; addr < edge + 16; ++addr) {
            for (Perm p : { PermR, PermW }) {
                Memory::SpanHint h;
                const bool ok = mem.probe8Span(h, addr, p);
                ASSERT_EQ(ok, byteAccess(addr, p))
                    << std::hex << "addr 0x" << addr << " perm "
                    << int(p);
                if (!ok)
                    continue;
                ASSERT_LE(h.lo, addr) << std::hex << "addr 0x" << addr;
                ASSERT_GE(h.hi, addr) << std::hex << "addr 0x" << addr;
                for (uint64_t a = h.lo; a <= h.hi; ++a) {
                    ASSERT_TRUE(byteAccess(Addr(a), p))
                        << std::hex << "window 0x" << h.lo << "-0x"
                        << h.hi << " addr 0x" << a;
                }
            }
        }
    }

    // At the top of the address space the byte window reaches the
    // last byte, where the word window stops four bytes short.
    Memory::SpanHint h8, h32;
    ASSERT_TRUE(mem.probe8Span(h8, end - 1, PermW));
    EXPECT_EQ(h8.hi, end - 1);
    ASSERT_TRUE(mem.probe32Span(h32, end - 4, PermW));
    EXPECT_EQ(h32.hi, end - 4);
    EXPECT_TRUE(mem.probe8Span(h8, end - 3, PermR));
    EXPECT_FALSE(mem.probe32Span(h32, end - 3, PermR));
}

TEST(Memory, PageTableMatchesSpanRuleNearEveryEdgeAndPage)
{
    // Checked accesses resolve permissions through a byte-per-page
    // table, a split list for pages one span edge cuts through, and a
    // span fallback for pages that two or more edges cut. On random
    // layouts with unaligned edges, every checked access near a
    // region edge or a page boundary, and at every byte of a page
    // with one edge or two, must agree with the span rule: in bounds,
    // and the first byte's region (the last definition covering it)
    // grants the permission.
    struct Def
    {
        Addr base;
        uint32_t size;
        Perm perm;
    };
    const Addr end = layout::kMemEnd;
    const Perm perms[] = { PermNone, PermR, PermW, PermRW, PermX,
                           PermRX };
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        Rng rng(seed);
        Memory mem;
        std::vector<Def> defs;
        auto define = [&](Addr base, uint32_t size, Perm perm) {
            mem.setRegion(base, size, perm, "r");
            // setRegion redefines an exact (base, size) match in place.
            for (Def &d : defs) {
                if (d.base == base && d.size == size) {
                    d.perm = perm;
                    return;
                }
            }
            defs.push_back(Def{base, size, perm});
        };
        for (int k = 0; k < 12; ++k) {
            const Addr base = static_cast<Addr>(rng.below(0x10000));
            define(base, 1 + static_cast<uint32_t>(rng.below(0x3000)),
                   perms[rng.below(std::size(perms))]);
        }
        // A page-aligned region, and one ending the address space.
        define(0x5000, 0x2000, perms[rng.below(std::size(perms))]);
        const uint32_t tail = 1 + static_cast<uint32_t>(rng.below(0x1800));
        define(end - tail, tail, perms[rng.below(std::size(perms))]);
        // Clear of the random regions: pages 0x20000 and 0x22000 with
        // one edge each, page 0x30000 with two, and page 0x40000 with
        // two edges from two regions.
        auto inPage = [&] {
            return 1 + static_cast<uint32_t>(
                           rng.below(Memory::kPageBytes - 2));
        };
        const uint32_t lo = inPage(), hi = inPage();
        define(0x20000 + lo, 0x2000 + hi - lo, PermRW);
        uint32_t a = inPage(), b = inPage();
        if (a > b)
            std::swap(a, b);
        define(0x30000 + a, b + 1 - a, PermR);
        define(0x40000, a, PermRX);
        define(0x40000 + b, 0x2000, PermRW);
        const Addr whole_pages[] = { 0x20000, 0x22000, 0x30000,
                                     0x40000 };

        auto spanRule = [&](Addr addr, unsigned len, Perm needed) {
            if (uint64_t(addr) + len > end)
                return false;
            Perm p = PermNone;
            for (const Def &d : defs) {
                if (addr >= d.base && addr - d.base < d.size)
                    p = d.perm;
            }
            return (p & needed) == needed;
        };

        std::vector<Addr> marks;
        for (const Def &d : defs) {
            marks.push_back(d.base);
            marks.push_back(d.base + d.size);
        }
        for (Addr page = 0; page <= 0x14000; page += Memory::kPageBytes)
            marks.push_back(page);
        for (Addr page = end - 0x2000; page <= end;
             page += Memory::kPageBytes)
            marks.push_back(page);
        // Every byte of the one- and two-edge pages.
        for (Addr page : whole_pages) {
            for (Addr addr = page + 8; addr < page + Memory::kPageBytes;
                 addr += 17)
                marks.push_back(addr);
        }

        for (Addr mark : marks) {
            for (Addr addr = mark >= 8 ? mark - 8 : 0; addr <= mark + 8;
                 ++addr) {
                uint8_t b = 0;
                uint32_t w = 0;
                ASSERT_EQ(mem.tryRead8(addr, b), spanRule(addr, 1, PermR))
                    << std::hex << "seed " << seed << " addr 0x" << addr;
                ASSERT_EQ(mem.tryRead32(addr, w),
                          spanRule(addr, 4, PermR))
                    << std::hex << "seed " << seed << " addr 0x" << addr;
                ASSERT_EQ(mem.tryWrite8(addr, 0x5a),
                          spanRule(addr, 1, PermW))
                    << std::hex << "seed " << seed << " addr 0x" << addr;
                ASSERT_EQ(mem.tryWrite32(addr, 0xa5a5a5a5u),
                          spanRule(addr, 4, PermW))
                    << std::hex << "seed " << seed << " addr 0x" << addr;
            }
        }
    }
}

/** True iff @p op moved @p mem's code epoch. */
template <typename Op>
bool
movesCodeEpoch(const Memory &mem, Op &&op)
{
    const uint64_t before = mem.codeEpoch();
    op();
    return mem.codeEpoch() != before;
}

TEST(Memory, CodeEpochMovesWhenCodeMayChange)
{
    Memory mem;
    mem.setRegion(0x1000, 0x100, PermRX, "code");
    mem.setRegion(0x1100, 0x100, PermRW, "data");
    const uint8_t bytes[8] = { 1, 2, 3, 4, 5, 6, 7, 8 };
    EXPECT_TRUE(movesCodeEpoch(mem, [&] { mem.rawWrite8(0x1000, 1); }));
    EXPECT_TRUE(movesCodeEpoch(mem, [&] { mem.rawWrite8(0x10ff, 1); }));
    // Ranges that only overlap code at one end.
    EXPECT_TRUE(movesCodeEpoch(mem, [&] { mem.rawWrite32(0x0ffd, 1); }));
    EXPECT_TRUE(movesCodeEpoch(mem, [&] { mem.rawWrite32(0x10fe, 1); }));
    EXPECT_TRUE(movesCodeEpoch(
        mem, [&] { mem.rawWriteBytes(0x10fc, bytes, 8); }));
    EXPECT_TRUE(movesCodeEpoch(
        mem, [&] { mem.rawWriteBytes(0x0ff9, bytes, 8); }));
    EXPECT_TRUE(
        movesCodeEpoch(mem, [&] { mem.zeroRange(0x0f00, 0x101); }));
    EXPECT_TRUE(
        movesCodeEpoch(mem, [&] { mem.zeroRange(0x10ff, 0x101); }));
    // Any region change, even one far from code.
    EXPECT_TRUE(movesCodeEpoch(
        mem, [&] { mem.setRegion(0x8000, 0x100, PermRW, "more"); }));
    EXPECT_TRUE(movesCodeEpoch(
        mem, [&] { mem.setRegion(0x1000, 0x100, PermR, "code"); }));
}

TEST(Memory, CodeEpochStillOnDataWrites)
{
    Memory mem;
    mem.setRegion(0x1000, 0x100, PermRX, "code");
    mem.setRegion(0x1100, 0x100, PermRW, "data");
    const uint8_t bytes[8] = { 1, 2, 3, 4, 5, 6, 7, 8 };
    // Raw writes next to code but not into it.
    EXPECT_FALSE(movesCodeEpoch(mem, [&] { mem.rawWrite8(0x1100, 1); }));
    EXPECT_FALSE(movesCodeEpoch(mem, [&] { mem.rawWrite8(0x0fff, 1); }));
    EXPECT_FALSE(movesCodeEpoch(mem, [&] { mem.rawWrite32(0x0ffc, 1); }));
    EXPECT_FALSE(
        movesCodeEpoch(mem, [&] { mem.rawWrite32(0x11fc, 1); }));
    EXPECT_FALSE(movesCodeEpoch(
        mem, [&] { mem.rawWriteBytes(0x1100, bytes, 8); }));
    EXPECT_FALSE(
        movesCodeEpoch(mem, [&] { mem.zeroRange(0x0f00, 0x100); }));
    EXPECT_FALSE(
        movesCodeEpoch(mem, [&] { mem.zeroRange(0x1100, 0x100); }));
    EXPECT_FALSE(movesCodeEpoch(mem, [&] { mem.zeroRange(0x1000, 0); }));
    // Checked writes need PermW, which code never has.
    EXPECT_FALSE(movesCodeEpoch(mem, [&] { mem.write32(0x1100, 1); }));
    EXPECT_FALSE(movesCodeEpoch(mem, [&] { mem.write8(0x11ff, 1); }));
    EXPECT_FALSE(movesCodeEpoch(
        mem, [&] { EXPECT_TRUE(mem.tryWrite32(0x1104, 1)); }));
    EXPECT_FALSE(movesCodeEpoch(
        mem, [&] { EXPECT_FALSE(mem.tryWrite8(0x1000, 1)); }));
    EXPECT_FALSE(movesCodeEpoch(
        mem, [&] { EXPECT_THROW(mem.write32(0x10fc, 1), Memory::Fault); }));
}

TEST(Memory, CleanPagesReadZero)
{
    // The dirty-page map's invariant: a page pageDirty() reports clean
    // is all zero. Drive every write path, then check each page.
    constexpr Addr kPage = Memory::kPageBytes;
    Memory mem;
    mem.setRegion(0x10000, 32 * kPage, PermRW, "data");
    auto expectInvariant = [&](const char *after) {
        EXPECT_EQ(test::firstNonZeroCleanPage(mem), -1) << after;
    };
    // A fresh memory is all clean and all zero.
    for (Addr a = 0; a < mem.size(); a += kPage)
        ASSERT_FALSE(mem.pageDirty(a)) << std::hex << a;

    const Addr p0 = 0x10000;
    EXPECT_TRUE(mem.tryWrite8(p0 + 1 * kPage + 5, 0x11));
    EXPECT_TRUE(mem.tryWrite32(p0 + 2 * kPage + 8, 0x22222222));
    mem.write8(p0 + 3 * kPage + 1, 0x33);
    mem.write16(p0 + 4 * kPage + 2, 0x4444);
    mem.write32(p0 + 5 * kPage + 4, 0x55555555);
    mem.rawWrite8(p0 + 6 * kPage, 0x66);
    mem.rawWrite32(p0 + 7 * kPage + 12, 0x77777777);
    const uint8_t bytes[6] = { 1, 2, 3, 4, 5, 6 };
    mem.rawWriteBytes(p0 + 8 * kPage + 100, bytes, sizeof bytes);
    expectInvariant("single-page writes");
    for (unsigned i = 1; i <= 8; ++i)
        EXPECT_TRUE(mem.pageDirty(p0 + i * kPage)) << i;
    EXPECT_FALSE(mem.pageDirty(p0));
    EXPECT_FALSE(mem.pageDirty(p0 + 9 * kPage));

    // 4-byte stores straddling a page edge mark both pages.
    const Addr edge = p0 + 10 * kPage;
    EXPECT_TRUE(mem.tryWrite32(edge - 2, 0xaabbccdd));
    EXPECT_TRUE(mem.pageDirty(edge - 1));
    EXPECT_TRUE(mem.pageDirty(edge));
    mem.write32(edge + kPage - 1, 0x01020304);
    mem.rawWrite32(edge + 2 * kPage - 3, 0x05060708);
    mem.write16(edge + 3 * kPage - 1, 0x0909);
    mem.rawWriteBytes(edge + 4 * kPage - 3, bytes, sizeof bytes);
    expectInvariant("straddling writes");

    // A partial-page zeroRange zeroes without cleaning; a whole-page
    // one cleans and retires cached hint windows.
    uint64_t epoch = mem.layoutEpoch();
    mem.zeroRange(p0 + 2 * kPage + 8, 4);
    EXPECT_TRUE(mem.pageDirty(p0 + 2 * kPage));
    EXPECT_EQ(mem.layoutEpoch(), epoch);
    EXPECT_EQ(mem.read32(p0 + 2 * kPage + 8), 0u);
    mem.zeroRange(p0 + 1 * kPage, kPage + 1);
    EXPECT_FALSE(mem.pageDirty(p0 + 1 * kPage));
    EXPECT_TRUE(mem.pageDirty(p0 + 2 * kPage));
    EXPECT_NE(mem.layoutEpoch(), epoch);
    epoch = mem.layoutEpoch();
    mem.zeroRange(p0 + 1 * kPage, kPage); // already clean
    EXPECT_EQ(mem.layoutEpoch(), epoch);
    expectInvariant("zeroRange");

    // Journal rollback restores bytes into pages zeroRange cleaned
    // after they were journaled.
    mem.beginJournal();
    mem.write32(p0 + 20 * kPage, 0x12345678);
    mem.write32(p0 + 5 * kPage + 4, 0xdeadbeef);
    mem.zeroRange(p0 + 5 * kPage, kPage);
    EXPECT_FALSE(mem.pageDirty(p0 + 5 * kPage));
    mem.rollback();
    EXPECT_EQ(mem.read32(p0 + 20 * kPage), 0u);
    EXPECT_EQ(mem.read32(p0 + 5 * kPage + 4), 0x55555555u);
    expectInvariant("journal rollback");

    // Write probes mark the page(s) of the access and bound the
    // window to them; read probes do neither.
    Memory::SpanHint h;
    ASSERT_TRUE(mem.probe32Span(h, p0 + 24 * kPage - 2, PermR));
    EXPECT_FALSE(mem.pageDirty(p0 + 23 * kPage));
    EXPECT_FALSE(mem.pageDirty(p0 + 24 * kPage));
    EXPECT_EQ(h.lo, p0);
    EXPECT_EQ(h.hi, p0 + 32 * kPage - 1); // first-byte rule
    ASSERT_TRUE(mem.probe32Span(h, p0 + 24 * kPage - 2, PermW));
    EXPECT_TRUE(mem.pageDirty(p0 + 23 * kPage));
    EXPECT_TRUE(mem.pageDirty(p0 + 24 * kPage));
    EXPECT_EQ(h.lo, p0 + 23 * kPage);
    EXPECT_EQ(h.hi, p0 + 25 * kPage - 4);
    ASSERT_TRUE(mem.probe8Span(h, p0 + 25 * kPage + 7, PermW));
    EXPECT_TRUE(mem.pageDirty(p0 + 25 * kPage));
    EXPECT_EQ(h.lo, p0 + 25 * kPage);
    EXPECT_EQ(h.hi, p0 + 26 * kPage - 1);

    // Wiping the whole region leaves every page clean and zero.
    mem.zeroRange(p0, 32 * kPage);
    for (Addr a = 0; a < mem.size(); a += kPage)
        EXPECT_FALSE(mem.pageDirty(a)) << std::hex << a;
    expectInvariant("full wipe");
}

TEST(MemoryDeathTest, WritableExecutableRegionIsRejected)
{
    Memory mem;
    EXPECT_DEATH(mem.setRegion(0x1000, 0x100,
                               static_cast<Perm>(PermW | PermX), "wx"),
                 "assertion failed");
}

TEST(GuestOs, WriteBufAndChecksum)
{
    Memory mem;
    mem.setRegion(0x1000, 0x1000, PermRW, "data");
    for (int i = 0; i < 8; ++i)
        mem.write8(0x1000 + i, static_cast<uint8_t>('a' + i));

    GuestOs os;
    MachineState st(IsaKind::Cisc);
    const IsaDescriptor &desc = isaDescriptor(IsaKind::Cisc);
    st.setReg(desc.retReg, uint32_t(SyscallNo::WriteBuf));
    st.setReg(desc.argRegs[1], 0x1000);
    st.setReg(desc.argRegs[2], 8);
    st.setReg(desc.argRegs[3], 7);
    EXPECT_TRUE(os.handleSyscall(st, mem));
    ASSERT_EQ(os.output().size(), 9u); // 8 bytes + connection tag
    EXPECT_EQ(os.output()[0], 'a');
    EXPECT_EQ(os.output()[8], 7);
    EXPECT_EQ(st.reg(desc.retReg), 8u);

    uint64_t sum1 = os.outputChecksum();
    os.reset();
    EXPECT_NE(os.outputChecksum(), sum1);
}

TEST(GuestOs, ExecveCapturesArgs)
{
    Memory mem;
    GuestOs os;
    MachineState st(IsaKind::Risc);
    const IsaDescriptor &desc = isaDescriptor(IsaKind::Risc);
    st.setReg(desc.retReg, uint32_t(SyscallNo::Execve));
    st.setReg(desc.argRegs[1], 0x11);
    st.setReg(desc.argRegs[2], 0x22);
    st.setReg(desc.argRegs[3], 0x33);
    EXPECT_FALSE(os.handleSyscall(st, mem)); // program ends
    EXPECT_TRUE(os.execveFired());
    EXPECT_EQ(os.execveArgs()[0], 0x11u);
    EXPECT_EQ(os.execveArgs()[2], 0x33u);
}

} // namespace
} // namespace hipstr
