/**
 * @file
 * Encoder/decoder tests for both ISAs: hand-picked encodings,
 * exhaustive round-trip property sweeps over randomly generated
 * instructions, and the structural properties the security analysis
 * relies on (single-byte RET on Cisc, strict alignment on Risc).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/translator.hh"
#include "isa/codec.hh"
#include "isa/instruction.hh"
#include "support/random.hh"
#include "test_util.hh"
#include "workloads/workloads.hh"

namespace hipstr
{
namespace
{

MachInst
roundTrip(IsaKind isa, const MachInst &mi, Addr pc = 0x1000)
{
    std::vector<uint8_t> bytes;
    encodeInst(isa, mi, pc, bytes);
    MachInst out;
    EXPECT_TRUE(decodeBytes(isa, bytes.data(), bytes.size(), pc, out))
        << "undecodable encoding for " << instToString(mi, isa);
    EXPECT_EQ(out.size, bytes.size());
    return out;
}

void
expectSameInst(const MachInst &a, const MachInst &b, IsaKind isa)
{
    EXPECT_EQ(a.op, b.op) << instToString(a, isa) << " vs "
                          << instToString(b, isa);
    EXPECT_TRUE(a.dst == b.dst) << instToString(b, isa);
    EXPECT_TRUE(a.src1 == b.src1) << instToString(b, isa);
    EXPECT_TRUE(a.src2 == b.src2) << instToString(b, isa);
    EXPECT_EQ(a.cond, b.cond);
    EXPECT_EQ(a.target, b.target);
}

TEST(CiscCodec, SingleByteRet)
{
    std::vector<uint8_t> bytes;
    encodeInst(IsaKind::Cisc, MachInst::ret(), 0, bytes);
    ASSERT_EQ(bytes.size(), 1u);
    EXPECT_EQ(bytes[0], 0xc3);
}

TEST(CiscCodec, PushPopAreOneByte)
{
    std::vector<uint8_t> bytes;
    encodeInst(IsaKind::Cisc,
               MachInst::push(Operand::makeReg(cisc::AX)), 0, bytes);
    EXPECT_EQ(bytes.size(), 1u);
    EXPECT_EQ(bytes[0], 0x50);
    bytes.clear();
    encodeInst(IsaKind::Cisc, MachInst::pop(cisc::DX), 0, bytes);
    EXPECT_EQ(bytes.size(), 1u);
    EXPECT_EQ(bytes[0], 0x58 + 2);
}

TEST(CiscCodec, MovImmEncoding)
{
    MachInst mi = MachInst::movRI(cisc::BX, 0x11223344);
    std::vector<uint8_t> bytes;
    encodeInst(IsaKind::Cisc, mi, 0, bytes);
    ASSERT_EQ(bytes.size(), 5u);
    EXPECT_EQ(bytes[0], 0xb8 + 3);
    EXPECT_EQ(bytes[1], 0x44);
    EXPECT_EQ(bytes[4], 0x11);
    expectSameInst(mi, roundTrip(IsaKind::Cisc, mi), IsaKind::Cisc);
}

TEST(CiscCodec, Disp8VsDisp32Selection)
{
    // Small displacement -> disp8 form (shorter).
    MachInst small = MachInst::load(cisc::AX, cisc::SP, 16);
    MachInst large = MachInst::load(cisc::AX, cisc::SP, 0x1000);
    EXPECT_LT(encodedSize(IsaKind::Cisc, small),
              encodedSize(IsaKind::Cisc, large));
    expectSameInst(small, roundTrip(IsaKind::Cisc, small),
                   IsaKind::Cisc);
    expectSameInst(large, roundTrip(IsaKind::Cisc, large),
                   IsaKind::Cisc);
}

TEST(CiscCodec, BranchTargetsRoundTrip)
{
    for (Addr pc : { 0x1000u, 0x2000u }) {
        for (Addr target : { 0x1005u, 0x800u, 0x10000u }) {
            MachInst j = MachInst::jmp(target);
            MachInst out = roundTrip(IsaKind::Cisc, j, pc);
            EXPECT_EQ(out.target, target);

            MachInst c = MachInst::jcc(Cond::Lt, target);
            out = roundTrip(IsaKind::Cisc, c, pc);
            EXPECT_EQ(out.target, target);
            EXPECT_EQ(out.cond, Cond::Lt);

            MachInst call = MachInst::call(target);
            out = roundTrip(IsaKind::Cisc, call, pc);
            EXPECT_EQ(out.target, target);
        }
    }
}

TEST(CiscCodec, UnalignedDecodeFindsHiddenRet)
{
    // mov ax, 0x11c3ff22 embeds a 0xc3 (RET) byte at offset 3.
    MachInst mi = MachInst::movRI(cisc::AX, 0x11c3ff22);
    std::vector<uint8_t> bytes;
    encodeInst(IsaKind::Cisc, mi, 0, bytes);
    ASSERT_EQ(bytes.size(), 5u);
    MachInst hidden;
    ASSERT_TRUE(
        decodeBytes(IsaKind::Cisc, bytes.data() + 3, 2, 3, hidden));
    EXPECT_EQ(hidden.op, Op::Ret);
}

TEST(CiscCodec, VmExitRoundTrip)
{
    MachInst mi = MachInst::vmExit(123456);
    MachInst out = roundTrip(IsaKind::Cisc, mi);
    EXPECT_EQ(out.op, Op::VmExit);
    EXPECT_EQ(out.src1.disp, 123456);
}

TEST(CiscCodec, EncodedSizeMatchesEveryTranslatedEncoding)
{
    // encodedSize counts bytes without encoding into a buffer, and the
    // translator lays out every block with it. For every instruction
    // the translator emits (VmExit stubs included) it must equal the
    // bytes encodeInst appends, and the sizes must tile the image.
    const IsaKind isa = IsaKind::Cisc;
    size_t checked = 0;
    for (const std::string &name : allWorkloadNames()) {
        FatBinary bin = compileModule(buildWorkload(name));
        Memory mem;
        loadFatBinary(bin, mem);
        PsrConfig cfg;
        cfg.seed = 321;
        Randomizer rand(bin, isa, cfg);
        PsrTranslator translator(bin, isa, rand, mem);
        for (const FuncInfo &fi : bin.funcsFor(isa)) {
            for (const MachBlockInfo &mb : fi.blocks) {
                TranslateError err;
                auto unit = translator.translate(mb.start, err);
                ASSERT_TRUE(unit) << name << ":" << fi.name;
                // The body, then one VmExit stub per exit a Jcc
                // targets: exactly the instructions of the image.
                std::vector<MachInst> emitted;
                std::vector<bool> stubbed(unit->exits.size(), false);
                for (const TInst &ti : unit->insts)
                    emitted.push_back(ti.mi);
                for (const TInst &ti : unit->insts) {
                    if (ti.mi.op != Op::Jcc || ti.exitIdx < 0 ||
                        stubbed[static_cast<size_t>(ti.exitIdx)]) {
                        continue;
                    }
                    stubbed[static_cast<size_t>(ti.exitIdx)] = true;
                    emitted.push_back(MachInst::vmExit(
                        static_cast<uint32_t>(ti.exitIdx)));
                }
                size_t total = 0;
                for (const MachInst &mi : emitted) {
                    std::vector<uint8_t> bytes;
                    encodeInst(isa, mi, 0x1000, bytes);
                    ASSERT_EQ(encodedSize(isa, mi), bytes.size())
                        << name << ":" << fi.name << ": "
                        << instToString(mi, isa);
                    total += bytes.size();
                    ++checked;
                }
                EXPECT_EQ(total, unit->bytes.size())
                    << name << ":" << fi.name;
            }
        }
    }
    EXPECT_GT(checked, 0u);
}

TEST(RiscCodec, AllInstructionsAreFourBytes)
{
    std::vector<MachInst> insts = {
        MachInst::nop(),
        MachInst::ret(),
        MachInst::movRI(risc::R3, -5),
        MachInst::load(risc::R1, risc::SP, 128),
        MachInst::alu(Op::Add, risc::R2, risc::R3,
                      Operand::makeReg(risc::R4)),
        MachInst::jmp(0x1100),
        MachInst::syscall(),
    };
    for (const MachInst &mi : insts)
        EXPECT_EQ(encodedSize(IsaKind::Risc, mi), 4u);
}

TEST(RiscCodec, MisalignedDecodeFails)
{
    std::vector<uint8_t> bytes;
    encodeInst(IsaKind::Risc, MachInst::nop(), 0x1000, bytes);
    encodeInst(IsaKind::Risc, MachInst::ret(), 0x1004, bytes);
    MachInst out;
    // Aligned decode works...
    EXPECT_TRUE(
        decodeBytes(IsaKind::Risc, bytes.data(), 8, 0x1000, out));
    // ...but any misaligned pc is rejected, which is why Galileo
    // finds no unintentional gadgets on Risc.
    EXPECT_FALSE(
        decodeBytes(IsaKind::Risc, bytes.data() + 1, 7, 0x1001, out));
    EXPECT_FALSE(
        decodeBytes(IsaKind::Risc, bytes.data() + 2, 6, 0x1002, out));
}

TEST(RiscCodec, ZeroWordDoesNotDecode)
{
    uint8_t zeros[4] = { 0, 0, 0, 0 };
    MachInst out;
    EXPECT_FALSE(decodeBytes(IsaKind::Risc, zeros, 4, 0x1000, out));
}

TEST(RiscCodec, BranchOffsetsRoundTrip)
{
    for (Addr pc : { 0x1000u, 0x4000u }) {
        for (int32_t delta : { 4, -4, 400, -400, 40000, -40000 }) {
            Addr target = static_cast<Addr>(
                static_cast<int64_t>(pc) + delta);
            MachInst j = MachInst::jmp(target);
            EXPECT_EQ(roundTrip(IsaKind::Risc, j, pc).target, target);
            MachInst c = MachInst::call(target);
            EXPECT_EQ(roundTrip(IsaKind::Risc, c, pc).target, target);
        }
    }
}

TEST(RiscCodec, MovHiRoundTrip)
{
    MachInst mi = MachInst::movHi(risc::R7, 0xbeef);
    MachInst out = roundTrip(IsaKind::Risc, mi);
    EXPECT_EQ(out.op, Op::MovHi);
    EXPECT_EQ(out.dst.reg, risc::R7);
    EXPECT_EQ(out.src1.disp, 0xbeef);
}

TEST(RiscCodec, PushPopNotEncodable)
{
    EXPECT_FALSE(isEncodable(IsaKind::Risc,
                             MachInst::push(Operand::makeReg(0))));
    EXPECT_FALSE(isEncodable(IsaKind::Risc, MachInst::pop(0)));
}

/**
 * Property sweep: generate random encodable instructions and verify
 * encode -> decode is the identity on both ISAs.
 */
class CodecRoundTrip : public ::testing::TestWithParam<IsaKind>
{
  protected:
    MachInst
    randomInst(Rng &rng)
    {
        IsaKind isa = GetParam();
        const IsaDescriptor &desc = isaDescriptor(isa);
        auto rand_reg = [&]() {
            return static_cast<Reg>(rng.below(desc.numRegs));
        };
        auto rand_disp = [&]() {
            return static_cast<int32_t>(rng.range(-30000, 30000));
        };
        auto rand_imm = [&]() {
            return isa == IsaKind::Risc
                ? static_cast<int32_t>(rng.range(-32768, 32767))
                : static_cast<int32_t>(rng.range(INT32_MIN / 2,
                                                 INT32_MAX / 2));
        };

        for (;;) {
            MachInst mi;
            switch (rng.below(12)) {
              case 0:
                mi = MachInst::movRR(rand_reg(), rand_reg());
                break;
              case 1:
                mi = MachInst::movRI(rand_reg(), rand_imm());
                break;
              case 2:
                mi = MachInst::load(rand_reg(), rand_reg(),
                                    rand_disp());
                break;
              case 3:
                mi = MachInst::store(rand_reg(), rand_disp(),
                                     rand_reg());
                break;
              case 4: {
                static const Op alu_ops[] = { Op::Add, Op::Sub,
                                              Op::And, Op::Or,
                                              Op::Xor, Op::Mul,
                                              Op::Divu };
                Op op = alu_ops[rng.below(7)];
                Reg d = rand_reg();
                mi = MachInst::alu(op, d, d,
                                   rng.chance(0.5)
                                       ? Operand::makeReg(rand_reg())
                                       : Operand::makeImm(rand_imm()));
                break;
              }
              case 5: {
                static const Op shift_ops[] = { Op::Shl, Op::Shr,
                                                Op::Sar };
                Op op = shift_ops[rng.below(3)];
                Reg d = rand_reg();
                mi = MachInst::alu(
                    op, d, d,
                    rng.chance(0.5)
                        ? Operand::makeReg(rand_reg())
                        : Operand::makeImm(
                              static_cast<int32_t>(rng.below(32))));
                break;
              }
              case 6:
                mi = MachInst::cmp(Operand::makeReg(rand_reg()),
                                   rng.chance(0.5)
                                       ? Operand::makeReg(rand_reg())
                                       : Operand::makeImm(rand_imm()));
                break;
              case 7:
                mi = MachInst::jcc(
                    static_cast<Cond>(rng.below(kNumConds)),
                    0x2000 + static_cast<Addr>(rng.below(0x400)) * 4);
                break;
              case 8:
                mi = MachInst::jmpInd(rand_reg());
                break;
              case 9:
                mi = MachInst::lea(rand_reg(), rand_reg(),
                                   rand_disp());
                break;
              case 10:
                mi = MachInst::loadByte(rand_reg(), rand_reg(),
                                        rand_disp());
                break;
              default:
                mi = MachInst::storeByte(rand_reg(), rand_disp(),
                                         rand_reg());
                break;
            }
            if (isEncodable(isa, mi))
                return mi;
        }
    }
};

TEST_P(CodecRoundTrip, RandomInstructionsSurviveRoundTrip)
{
    IsaKind isa = GetParam();
    Rng rng(0xc0dec + static_cast<uint64_t>(isa));
    for (int i = 0; i < 4000; ++i) {
        MachInst mi = randomInst(rng);
        Addr pc = 0x1000;
        std::vector<uint8_t> bytes;
        encodeInst(isa, mi, pc, bytes);
        ASSERT_LE(bytes.size(), isaDescriptor(isa).maxInstBytes);
        MachInst out;
        ASSERT_TRUE(
            decodeBytes(isa, bytes.data(), bytes.size(), pc, out))
            << instToString(mi, isa);
        expectSameInst(mi, out, isa);
    }
}

INSTANTIATE_TEST_SUITE_P(BothIsas, CodecRoundTrip,
                         ::testing::Values(IsaKind::Risc,
                                           IsaKind::Cisc),
                         [](const auto &info) {
                             return isaName(info.param);
                         });

} // namespace
} // namespace hipstr
