/**
 * @file
 * Seeded differential fuzz of the shaped executor against the per-op
 * reference, on both ISAs.
 *
 * Every ExecShape is generated with random registers, immediates and
 * displacements over random memory layouts whose region edges fall
 * mid-page (pages that one edge cuts and pages that two edges cut),
 * with memory operands aimed at those edges so that accesses fault
 * right at a span boundary. Each instruction runs twice from the same
 * state, once through executeInstInline with its stamped shape and
 * once through the per-op code (interp_detail::executePerOp), and
 * the two must leave the same status, registers, flags, pc and
 * memory. The data addresses the shaped run reports must equal
 * forEachMemAccess's, in order, faults included.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <utility>
#include <vector>

#include "isa/exec_inline.hh"
#include "isa/exec_shape.hh"
#include "isa/mem_traffic.hh"
#include "isa/memory.hh"
#include "support/random.hh"

namespace hipstr
{
namespace
{

using Access = std::pair<Addr, bool>;

/** Base of the data window the random layouts live in. */
constexpr Addr kWindow = layout::kDataBase;
constexpr uint32_t kWindowBytes = 0x5000;
constexpr uint32_t kPage = Memory::kPageBytes;

/** One random layout and the addresses worth aiming at in it. */
struct Layout
{
    Memory mem;
    std::vector<Addr> targets; ///< region edges and page boundaries

    explicit Layout(Rng &rng)
    {
        const Perm perms[] = { PermNone, PermR, PermRW, PermRX };
        auto define = [&](Addr base, uint32_t size, Perm perm) {
            mem.setRegion(base, size, perm, "fuzz");
            targets.push_back(base);
            targets.push_back(base + size);
        };
        auto offset = [&] {
            return 1 + static_cast<uint32_t>(rng.below(kPage - 1));
        };
        // Pages 1 and 3 of the window carry one edge each, page 2 two.
        const uint32_t lo = offset(), hi = offset();
        define(kWindow + kPage + lo, 2 * kPage + hi - lo, PermRW);
        uint32_t a = offset(), b = offset();
        if (a > b)
            std::swap(a, b);
        if (a == b)
            ++b;
        define(kWindow + 2 * kPage + a, b - a,
               rng.chance(0.5) ? PermR : PermNone);
        // A few more anywhere in the window, with random perms.
        for (int k = 0, n = static_cast<int>(rng.below(3)); k < n; ++k) {
            const Addr base =
                kWindow + static_cast<Addr>(rng.below(kWindowBytes));
            const uint32_t size = 1 + static_cast<uint32_t>(rng.below(
                kWindow + kWindowBytes - base));
            define(base, size, perms[rng.below(std::size(perms))]);
        }
        // The stack, whose lower edge pushes fault across.
        define(layout::kStackLimit, layout::kStackTop - layout::kStackLimit,
               PermRW);
        for (Addr p = kWindow; p <= kWindow + kWindowBytes; p += kPage)
            targets.push_back(p);
        // Non-zero contents, so loads see distinct values.
        for (Addr p = kWindow; p < kWindow + kWindowBytes; p += 4)
            mem.rawWrite32(p, static_cast<uint32_t>(rng.next()));
        for (Addr p = layout::kStackLimit; p < layout::kStackLimit + 64;
             p += 4)
            mem.rawWrite32(p, static_cast<uint32_t>(rng.next()));
        for (Addr p = layout::kStackTop - 0x200; p < layout::kStackTop;
             p += 4)
            mem.rawWrite32(p, static_cast<uint32_t>(rng.next()));
    }
};

/** Random instruction generator for one ISA over one layout. */
struct Gen
{
    Rng &rng;
    const Layout &lay;
    IsaKind isa;
    MachineState &state;

    unsigned
    numRegs() const
    {
        return isa == IsaKind::Risc ? risc::kNumRegs : cisc::kNumRegs;
    }

    Reg
    reg()
    {
        return static_cast<Reg>(rng.below(numRegs()));
    }

    int32_t
    imm()
    {
        return rng.chance(0.5)
            ? static_cast<int32_t>(rng.range(-64, 64))
            : static_cast<int32_t>(rng.next());
    }

    /** An address within a few bytes of an edge, a page boundary or
     *  the stack's bottom edge, or a plain stack address. */
    Addr
    target()
    {
        if (rng.chance(0.15))
            return layout::kStackLimit +
                static_cast<Addr>(rng.range(-6, 6));
        if (rng.chance(0.15))
            return layout::kStackTop - 4 * (1 + rng.below(64));
        return rng.pick(lay.targets) + static_cast<Addr>(rng.range(-6, 6));
    }

    /** A memory operand whose base register now aims at target(). */
    Operand
    mem()
    {
        const Reg base = reg();
        const int32_t disp = static_cast<int32_t>(rng.range(-40, 40));
        state.setReg(base, target() - static_cast<Addr>(disp));
        return Operand::makeMem(base, disp);
    }

    Operand r() { return Operand::makeReg(reg()); }
    Operand i() { return Operand::makeImm(imm()); }

    /** Point the stack pointer somewhere worth pushing or popping. */
    void
    aimStack()
    {
        state.setSp(target());
    }

    /** An instruction whose classifyExec is @p s (or a rare PerOp
     *  form, or the op a block-loop exit shape is stamped on). */
    MachInst
    make(ExecShape s)
    {
        MachInst mi;
        mi.size = static_cast<uint8_t>(1 + rng.below(8));
        mi.target = static_cast<Addr>(rng.next());
        mi.cond = static_cast<Cond>(rng.below(10));
        auto two = [&](Op op, Operand d, Operand s1, Operand s2) {
            mi.op = op;
            mi.dst = d;
            mi.src1 = s1;
            mi.src2 = s2;
        };
        const int alu = aluIndex(s);
        if (alu >= 0) {
            static constexpr Op ops[] = {
#define HIPSTR_FUZZ_ALU_OP(o) Op::o,
                HIPSTR_ALU_OPS(HIPSTR_FUZZ_ALU_OP)
#undef HIPSTR_FUZZ_ALU_OP
            };
            const Op op = ops[alu / 5];
            switch (static_cast<ShapeForm>(alu % 5)) {
              case ShapeForm::RR: two(op, r(), r(), r()); break;
              case ShapeForm::RI: two(op, r(), r(), i()); break;
              case ShapeForm::RM: {
                const Operand d = r(), s1 = r();
                two(op, d, s1, mem());
                break;
              }
              case ShapeForm::MR:
              case ShapeForm::MI: {
                const Operand src2 =
                    static_cast<ShapeForm>(alu % 5) == ShapeForm::MR
                    ? r() : i();
                const Operand slot = mem();
                two(op, slot, slot, src2);
                break;
              }
            }
            // Division by zero must stay total on both paths.
            if (op == Op::Divu && rng.chance(0.2) && mi.src2.isImm())
                mi.src2.disp = 0;
            return mi;
        }
        switch (s) {
          case ExecShape::MovRR: two(Op::Mov, r(), r(), {}); break;
          case ExecShape::MovRI: two(Op::Mov, r(), i(), {}); break;
          case ExecShape::MovRM: {
            const Operand d = r();
            two(Op::Mov, d, mem(), {});
            break;
          }
          case ExecShape::MovMR: {
            const Operand s1 = r();
            two(Op::Mov, mem(), s1, {});
            break;
          }
          case ExecShape::MovMI: two(Op::Mov, mem(), i(), {}); break;
          case ExecShape::MovbRM: {
            const Operand d = r();
            two(Op::Movb, d, mem(), {});
            break;
          }
          case ExecShape::MovbMR: {
            const Operand s1 = r();
            two(Op::Movb, mem(), s1, {});
            break;
          }
          case ExecShape::MovbMI: two(Op::Movb, mem(), i(), {}); break;
          case ExecShape::Lea: {
            const Operand d = r();
            two(Op::Lea, d, mem(), {});
            break;
          }
          case ExecShape::MovHi: two(Op::MovHi, r(), i(), {}); break;
#define HIPSTR_FUZZ_FLAG_SHAPES(Name)                                 \
          case ExecShape::Name##RR: two(Op::Name, {}, r(), r()); break; \
          case ExecShape::Name##RI: two(Op::Name, {}, r(), i()); break; \
          case ExecShape::Name##RM: {                                 \
            const Operand s1 = r();                                   \
            two(Op::Name, {}, s1, mem());                             \
            break;                                                    \
          }                                                           \
          case ExecShape::Name##MR: {                                 \
            const Operand s2 = r();                                   \
            two(Op::Name, {}, mem(), s2);                             \
            break;                                                    \
          }                                                           \
          case ExecShape::Name##MI: two(Op::Name, {}, mem(), i()); break;
          HIPSTR_FUZZ_FLAG_SHAPES(Cmp)
          HIPSTR_FUZZ_FLAG_SHAPES(Test)
#undef HIPSTR_FUZZ_FLAG_SHAPES
          case ExecShape::PushR:
            aimStack();
            two(Op::Push, {}, r(), {});
            break;
          case ExecShape::PushI:
            aimStack();
            two(Op::Push, {}, i(), {});
            break;
          case ExecShape::PopR:
            aimStack();
            two(Op::Pop, r(), {}, {});
            break;
          case ExecShape::Nop: mi.op = Op::Nop; break;
          case ExecShape::Jmp: mi.op = Op::Jmp; break;
          case ExecShape::Jcc:
          case ExecShape::JccExit: mi.op = Op::Jcc; break;
          case ExecShape::Call:
            aimStack();
            mi.op = Op::Call;
            break;
          case ExecShape::Ret:
          case ExecShape::RetExit:
            aimStack();
            mi.op = Op::Ret;
            break;
          case ExecShape::SyscallExit: mi.op = Op::Syscall; break;
          case ExecShape::VmExit:
            two(Op::VmExit, {}, Operand::makeImm(
                                    static_cast<int32_t>(rng.below(8))),
                {});
            break;
          case ExecShape::PerOp:
            makeRare(mi);
            break;
          default:
            ADD_FAILURE() << "no generator for shape "
                          << static_cast<unsigned>(s);
        }
        return mi;
    }

    /** A form no shape covers: the per-op code runs it. */
    void
    makeRare(MachInst &mi)
    {
        auto set = [&](Op op, Operand d, Operand s1, Operand s2) {
            mi.op = op;
            mi.dst = d;
            mi.src1 = s1;
            mi.src2 = s2;
        };
        switch (rng.below(9)) {
          case 0:
            aimStack();
            set(Op::Push, {}, mem(), {});
            break;
          case 1:
            aimStack();
            set(Op::Pop, mem(), {}, {});
            break;
          case 2: { // three-address ALU on two memory words
            const Operand s2 = rng.chance(0.5) ? r() : i();
            const Operand s1 = mem();
            set(Op::Add, mem(), s1, s2);
            if (mi.dst == mi.src1)
                mi.dst.disp += 4;
            break;
          }
          case 3: {
            const Operand d = mem();
            set(Op::Mov, d, mem(), {});
            break;
          }
          case 4:
            set(Op::JmpInd, {}, rng.chance(0.5) ? r() : mem(), {});
            break;
          case 5:
            aimStack();
            set(Op::CallInd, {}, rng.chance(0.5) ? r() : mem(), {});
            break;
          case 6:
            mi.op = Op::Halt;
            break;
          case 7:
            // The sandbox contract: no OS, so Syscall exits.
            mi.op = Op::Syscall;
            break;
          default: {
            const Operand s2 = mem();
            set(Op::Cmp, {}, mem(), s2);
            break;
          }
        }
    }
};

struct Outcome
{
    ExecStatus status = ExecStatus::Continue;
    MachineState state{ IsaKind::Cisc };
    std::vector<uint8_t> window;
    std::vector<uint8_t> stackLow;
    std::vector<uint8_t> stackHigh;
    std::vector<Access> accesses;
};

void
capture(const Memory &mem, Outcome &o)
{
    auto grab = [&](Addr base, uint32_t len, std::vector<uint8_t> &out) {
        out.assign(mem.data() + base, mem.data() + base + len);
    };
    grab(kWindow - 64, kWindowBytes + 128, o.window);
    grab(layout::kStackLimit - 64, 128, o.stackLow);
    grab(layout::kStackTop - 0x200, 0x200, o.stackHigh);
}

bool
blockExitShape(ExecShape s)
{
    return s == ExecShape::JccExit || s == ExecShape::RetExit ||
        s == ExecShape::SyscallExit;
}

TEST(ExecShapeFuzz, ShapedExecutionMatchesPerOpReference)
{
    constexpr unsigned kShapes =
        static_cast<unsigned>(ExecShape::NumShapes);
    for (IsaKind isa : kAllIsas) {
        Rng rng(0x5eed0000 + static_cast<uint64_t>(isa));
        std::array<unsigned, kShapes> ran{}, faulted{};
        for (unsigned layout_no = 0; layout_no < 120; ++layout_no) {
            Layout lay(rng);
            for (unsigned k = 0; k < 2 * kShapes; ++k) {
                const auto shape = static_cast<ExecShape>(k % kShapes);
                MachineState start(isa);
                for (unsigned r = 0; r < 16; ++r)
                    start.setReg(static_cast<Reg>(r),
                                 static_cast<uint32_t>(rng.next()));
                start.flags = Flags{ rng.chance(0.5), rng.chance(0.5),
                                     rng.chance(0.5), rng.chance(0.5) };
                start.pc = static_cast<Addr>(rng.next());
                Gen gen{ rng, lay, isa, start };
                const MachInst mi = gen.make(shape);
                const std::string where = std::string(isaName(isa)) +
                    " layout " + std::to_string(layout_no) + " shape " +
                    std::to_string(k % kShapes) + ": " +
                    instToString(mi, isa);
                if (!blockExitShape(shape)) {
                    ASSERT_EQ(classifyExec(mi), shape) << where;
                }

                // Shaped run, journaled so the reference starts from
                // the same memory.
                Outcome got;
                got.state = start;
                Memory &mem = lay.mem;
                mem.beginJournal();
                got.status = executeInstInline(
                    shape, mi, got.state, mem, nullptr,
                    [&](Addr a, bool w) { got.accesses.push_back({a, w}); });
                capture(mem, got);
                mem.rollback();

                // Per-op reference, with forEachMemAccess's stream.
                Outcome want;
                want.state = start;
                forEachMemAccess(mi, start, [&](Addr a, bool w) {
                    want.accesses.push_back({a, w});
                });
                mem.beginJournal();
                want.status =
                    interp_detail::executePerOp(mi, want.state, mem,
                                                nullptr);
                capture(mem, want);
                mem.rollback();

                ++ran[k % kShapes];
                if (want.status == ExecStatus::Faulted)
                    ++faulted[k % kShapes];

                if (shape == ExecShape::RetExit ||
                    shape == ExecShape::SyscallExit ||
                    (shape == ExecShape::JccExit &&
                     condHolds(mi.cond, start.flags))) {
                    // The block loop takes over: nothing executed.
                    EXPECT_EQ(got.status, ExecStatus::BlockExit) << where;
                    EXPECT_EQ(got.state.regs, start.regs) << where;
                    EXPECT_EQ(got.state.flags, start.flags) << where;
                    EXPECT_EQ(got.state.pc, start.pc) << where;
                    EXPECT_TRUE(got.accesses.empty()) << where;
                    Outcome untouched;
                    capture(mem, untouched);
                    EXPECT_EQ(got.window, untouched.window) << where;
                    continue;
                }
                EXPECT_EQ(got.status, want.status) << where;
                EXPECT_EQ(got.state.regs, want.state.regs) << where;
                EXPECT_EQ(got.state.flags, want.state.flags) << where;
                EXPECT_EQ(got.state.pc, want.state.pc) << where;
                EXPECT_EQ(got.window, want.window) << where;
                EXPECT_EQ(got.stackLow, want.stackLow) << where;
                EXPECT_EQ(got.stackHigh, want.stackHigh) << where;
                EXPECT_EQ(got.accesses, want.accesses) << where;
                if (testing::Test::HasFailure())
                    return;
            }
        }
        // Every shape ran; every shape that touches memory also
        // faulted at some span edge.
        for (unsigned s = 0; s < kShapes; ++s)
            EXPECT_GT(ran[s], 0u) << isaName(isa) << " shape " << s;
        for (ExecShape s : { ExecShape::MovRM, ExecShape::MovMR,
                             ExecShape::MovbMI, ExecShape::CmpMI,
                             ExecShape::TestRM, ExecShape::PushR,
                             ExecShape::PopR, ExecShape::AddMR,
                             ExecShape::DivuRM, ExecShape::Ret,
                             ExecShape::PerOp }) {
            EXPECT_GT(faulted[static_cast<unsigned>(s)], 0u)
                << isaName(isa) << " shape "
                << static_cast<unsigned>(s) << " never faulted";
        }
    }
}

} // namespace
} // namespace hipstr
