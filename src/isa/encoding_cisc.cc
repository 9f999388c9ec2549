/**
 * @file
 * Encoder/decoder for the Cisc (x86-like) ISA.
 *
 * Encoding summary (all multi-byte values little-endian):
 *
 *   0x90                    nop
 *   0xC3                    ret
 *   0xF4                    halt
 *   0xCD 0x80               syscall
 *   0x50+r / 0x58+r         push r / pop r
 *   0x68 imm32              push imm32
 *   0xB8+r imm32            mov r, imm32
 *   0x89 /r                 mov rm, r      (store / reg-reg move)
 *   0x8A /r                 movb r, m8     (byte load, zero-extend)
 *   0x88 /r                 movb m8, r     (byte store)
 *   0xC6 /0 imm8            movb m8, imm8
 *   0x8B /r                 mov r, rm      (load; decoder also accepts
 *                                           the redundant reg-reg form)
 *   0xC7 /0 imm32           mov rm, imm32
 *   0x8D /r                 lea r, m
 *   0x01/0x29/0x21/0x09/0x31  add/sub/and/or/xor rm, r
 *   0x03/0x2B/0x23/0x0B/0x33  add/sub/and/or/xor r, rm
 *   0x39 / 0x3B             cmp rm, r / cmp r, rm
 *   0x85                    test rm, r
 *   0x81 /ext imm32         add/or/and/sub/xor/cmp rm, imm32
 *                           (ext: 0,1,4,5,6,7)
 *   0x83 /ext imm8          same with sign-extended imm8
 *   0xC1 /ext imm8          shl/shr/sar rm, imm8 (ext: 4,5,7)
 *   0xF7 /0 imm32           test rm, imm32
 *   0x69 /r imm32           mul r, rm, imm32 (two-address: reg==rm)
 *   0xE8 rel32              call
 *   0xE9 rel32 / 0xEB rel8  jmp
 *   0xFF /2 , /4            call rm / jmp rm (register-indirect)
 *   0x70+cc rel8            jcc (decoder only; assembler emits rel32)
 *   0x00/0x08/0x20/0x28/0x30/0x38 /r   add/or/and/sub/xor/cmp rm, r
 *                           (decoder-only aliases of the byte-ALU
 *                           group; approximated at word width — they
 *                           exist so unaligned decode is as dense as
 *                           on real x86, where nearly every byte
 *                           starts some instruction)
 *   0x40+r / 0x48+r         inc r / dec r (decoder-only aliases)
 *   0x0F 0x80+cc rel32      jcc
 *   0x0F 0xAF /r            mul r, rm
 *   0x0F 0xF6 /r            divu r, rm
 *   0x0F 0xF7 /r imm32      divu r, imm32
 *   0x0F 0xB8/0xB9/0xBB /r  shl/shr/sar rm(dst), reg(amount)
 *   0x0F 0x0B imm32         vmexit (translator-only)
 *
 * ModRM follows x86: mod(2)|reg(3)|rm(3); mod 3 = register direct,
 * mod 0 = [rm], mod 1 = [rm+disp8], mod 2 = [rm+disp32]. The SIB quirk
 * is deliberately omitted: rm=4 simply addresses through SP.
 *
 * Single-byte RET plus dense immediate bytes are what make unaligned
 * decode yield the large unintentional-gadget population the paper
 * measures on x86 (52x the ARM count).
 */

#include <cstring>

#include "isa/codec.hh"
#include "support/bitops.hh"
#include "support/logging.hh"

namespace hipstr
{
namespace detail
{

namespace
{

/** x86 condition-code nibbles for our Cond set. */
const uint8_t kCondToCc[kNumConds] = {
    0x4, // Eq
    0x5, // Ne
    0xc, // Lt
    0xe, // Le
    0xf, // Gt
    0xd, // Ge
    0x2, // B
    0x6, // Be
    0x7, // A
    0x3  // Ae
};

bool
ccToCond(uint8_t cc, Cond &out)
{
    for (unsigned i = 0; i < kNumConds; ++i) {
        if (kCondToCc[i] == cc) {
            out = static_cast<Cond>(i);
            return true;
        }
    }
    return false;
}

struct AluEnc
{
    Op op;
    uint8_t mrOpcode;   ///< "rm, r" form (0 = none)
    uint8_t rmOpcode;   ///< "r, rm" form (0 = none)
    uint8_t immExt;     ///< /ext for the 0x81 / 0x83 group (0xff = none)
};

const AluEnc kAluEncs[] = {
    { Op::Add, 0x01, 0x03, 0 },
    { Op::Sub, 0x29, 0x2b, 5 },
    { Op::And, 0x21, 0x23, 4 },
    { Op::Or,  0x09, 0x0b, 1 },
    { Op::Xor, 0x31, 0x33, 6 },
    { Op::Cmp, 0x39, 0x3b, 7 },
};

const AluEnc *
findAluEnc(Op op)
{
    for (const auto &e : kAluEncs)
        if (e.op == op)
            return &e;
    return nullptr;
}

const AluEnc *
findAluByMr(uint8_t opc)
{
    for (const auto &e : kAluEncs) {
        if (e.mrOpcode == opc)
            return &e;
        // Decoder-only byte-width aliases (mrOpcode - 1), matching
        // x86's dense 0x00/0x08/... byte-ALU row.
        if (e.mrOpcode - 1 == opc)
            return &e;
    }
    return nullptr;
}

const AluEnc *
findAluByRm(uint8_t opc)
{
    for (const auto &e : kAluEncs) {
        if (e.rmOpcode == opc)
            return &e;
        // Decoder-only byte-width aliases (rmOpcode - 1).
        if (e.rmOpcode - 1 == opc)
            return &e;
    }
    return nullptr;
}

const AluEnc *
findAluByExt(uint8_t ext)
{
    for (const auto &e : kAluEncs)
        if (e.immExt == ext)
            return &e;
    return nullptr;
}

/** Shift /ext values in the 0xC1 group. */
bool
shiftExt(Op op, uint8_t &ext)
{
    switch (op) {
      case Op::Shl: ext = 4; return true;
      case Op::Shr: ext = 5; return true;
      case Op::Sar: ext = 7; return true;
      default: return false;
    }
}

bool
extToShift(uint8_t ext, Op &op)
{
    switch (ext) {
      case 4: op = Op::Shl; return true;
      case 5: op = Op::Shr; return true;
      case 7: op = Op::Sar; return true;
      default: return false;
    }
}

void
emit8(std::vector<uint8_t> &out, uint8_t v)
{
    out.push_back(v);
}

void
emit32(std::vector<uint8_t> &out, uint32_t v)
{
    out.push_back(static_cast<uint8_t>(v));
    out.push_back(static_cast<uint8_t>(v >> 8));
    out.push_back(static_cast<uint8_t>(v >> 16));
    out.push_back(static_cast<uint8_t>(v >> 24));
}

/**
 * A byte sink that only counts: sizeCisc runs the one encoder into it,
 * so sizes cannot drift from encodings and nothing is allocated.
 */
struct ByteCount
{
    unsigned n = 0;
};

void
emit8(ByteCount &out, uint8_t)
{
    ++out.n;
}

void
emit32(ByteCount &out, uint32_t)
{
    out.n += 4;
}

/**
 * Emit a ModRM byte plus displacement for operand @p rm_op with the
 * given reg-field value. @p rm_op must be Reg or Mem.
 */
template <class Sink>
void
emitModrm(Sink &out, unsigned reg_field, const Operand &rm_op)
{
    hipstr_assert(reg_field < 8);
    if (rm_op.isReg()) {
        hipstr_assert(rm_op.reg < 8);
        emit8(out, static_cast<uint8_t>(0xc0 | (reg_field << 3) |
                                        rm_op.reg));
    } else if (rm_op.isMem()) {
        hipstr_assert(rm_op.base < 8);
        if (rm_op.disp == 0) {
            emit8(out, static_cast<uint8_t>(0x00 | (reg_field << 3) |
                                            rm_op.base));
        } else if (fitsSigned(rm_op.disp, 8)) {
            emit8(out, static_cast<uint8_t>(0x40 | (reg_field << 3) |
                                            rm_op.base));
            emit8(out, static_cast<uint8_t>(rm_op.disp));
        } else {
            emit8(out, static_cast<uint8_t>(0x80 | (reg_field << 3) |
                                            rm_op.base));
            emit32(out, static_cast<uint32_t>(rm_op.disp));
        }
    } else {
        hipstr_panic("emitModrm: operand is neither reg nor mem");
    }
}

/**
 * Decode a ModRM byte (+displacement). Returns the number of bytes
 * consumed beyond the ModRM byte itself, or -1 if @p len is too short.
 */
int
decodeModrm(const uint8_t *bytes, size_t len, unsigned &reg_field,
            Operand &rm_op)
{
    if (len < 1)
        return -1;
    uint8_t modrm = bytes[0];
    unsigned mod = modrm >> 6;
    reg_field = (modrm >> 3) & 7;
    unsigned rm = modrm & 7;
    switch (mod) {
      case 3:
        rm_op = Operand::makeReg(static_cast<Reg>(rm));
        return 0;
      case 0:
        rm_op = Operand::makeMem(static_cast<Reg>(rm), 0);
        return 0;
      case 1:
        if (len < 2)
            return -1;
        rm_op = Operand::makeMem(static_cast<Reg>(rm),
                                 static_cast<int8_t>(bytes[1]));
        return 1;
      case 2: {
        if (len < 5)
            return -1;
        uint32_t d;
        std::memcpy(&d, bytes + 1, 4);
        rm_op = Operand::makeMem(static_cast<Reg>(rm),
                                 static_cast<int32_t>(d));
        return 4;
      }
    }
    return -1;
}

uint32_t
read32le(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

} // namespace

bool
encodableCisc(const MachInst &mi)
{
    auto operand_regs_ok = [](const Operand &o) {
        if (o.isReg())
            return o.reg < cisc::kNumRegs;
        if (o.isMem())
            return o.base < cisc::kNumRegs;
        return true;
    };
    if (!operand_regs_ok(mi.dst) || !operand_regs_ok(mi.src1) ||
        !operand_regs_ok(mi.src2)) {
        return false;
    }

    switch (mi.op) {
      case Op::Nop:
      case Op::Ret:
      case Op::Halt:
      case Op::Syscall:
      case Op::Jmp:
      case Op::Call:
      case Op::Jcc:
      case Op::VmExit:
        return true;
      case Op::JmpInd:
      case Op::CallInd:
        return mi.src1.isReg();
      case Op::Push:
        return mi.src1.isReg() || mi.src1.isImm();
      case Op::Pop:
        return mi.dst.isReg();
      case Op::MovHi:
        return false; // Risc-only; Cisc has full imm32 moves
      case Op::Movb:
        if (mi.dst.isReg())
            return mi.src1.isMem();
        if (mi.dst.isMem())
            return mi.src1.isReg() || mi.src1.isImm();
        return false;
      case Op::Mov:
        if (mi.dst.isReg())
            return mi.src1.isReg() || mi.src1.isImm() || mi.src1.isMem();
        if (mi.dst.isMem())
            return mi.src1.isReg() || mi.src1.isImm();
        return false;
      case Op::Lea:
        return mi.dst.isReg() && mi.src1.isMem();
      case Op::Cmp:
        if (mi.src1.isReg() || mi.src1.isMem())
            return mi.src2.isReg() || mi.src2.isImm() ||
                (mi.src1.isReg() && mi.src2.isMem());
        return false;
      case Op::Test:
        return (mi.src1.isReg() || mi.src1.isMem()) &&
            (mi.src2.isReg() || mi.src2.isImm());
      case Op::Shl:
      case Op::Shr:
      case Op::Sar:
        // Two-address. Immediate shifts allow a mem dst; variable
        // shifts require a reg dst.
        if (!(mi.dst == mi.src1))
            return false;
        if (mi.src2.isImm())
            return mi.dst.isReg() || mi.dst.isMem();
        if (mi.src2.isReg())
            return mi.dst.isReg();
        return false;
      case Op::Mul:
      case Op::Divu:
        // Two-address, reg dst; src2 may be reg, mem, or imm.
        return mi.dst.isReg() && mi.dst == mi.src1 &&
            (mi.src2.isReg() || mi.src2.isMem() || mi.src2.isImm());
      case Op::Add:
      case Op::Sub:
      case Op::And:
      case Op::Or:
      case Op::Xor:
        // Two-address; one of dst/src2 may be memory, not both.
        if (!(mi.dst == mi.src1))
            return false;
        if (mi.dst.isReg())
            return mi.src2.isReg() || mi.src2.isImm() || mi.src2.isMem();
        if (mi.dst.isMem())
            return mi.src2.isReg() || mi.src2.isImm();
        return false;
    }
    return false;
}

namespace
{

/** The Cisc encoder over any byte sink (see ByteCount). */
template <class Sink>
void
encodeCiscTo(const MachInst &mi, Addr pc, Sink &out)
{
    hipstr_assert(encodableCisc(mi));

    auto rel32_to = [&](unsigned inst_size) {
        return static_cast<uint32_t>(mi.target) -
            (static_cast<uint32_t>(pc) + inst_size);
    };

    switch (mi.op) {
      case Op::Nop:
        emit8(out, 0x90);
        return;
      case Op::Ret:
        emit8(out, 0xc3);
        return;
      case Op::Halt:
        emit8(out, 0xf4);
        return;
      case Op::Syscall:
        emit8(out, 0xcd);
        emit8(out, 0x80);
        return;
      case Op::Push:
        if (mi.src1.isReg()) {
            emit8(out, static_cast<uint8_t>(0x50 + mi.src1.reg));
        } else {
            emit8(out, 0x68);
            emit32(out, static_cast<uint32_t>(mi.src1.disp));
        }
        return;
      case Op::Pop:
        emit8(out, static_cast<uint8_t>(0x58 + mi.dst.reg));
        return;
      case Op::Mov:
        if (mi.dst.isReg() && mi.src1.isImm()) {
            emit8(out, static_cast<uint8_t>(0xb8 + mi.dst.reg));
            emit32(out, static_cast<uint32_t>(mi.src1.disp));
        } else if (mi.dst.isReg() && mi.src1.isMem()) {
            emit8(out, 0x8b);
            emitModrm(out, mi.dst.reg, mi.src1);
        } else if (mi.src1.isReg()) {
            // reg-reg move or store: 0x89 mov rm, r
            emit8(out, 0x89);
            emitModrm(out, mi.src1.reg, mi.dst);
        } else {
            // mem <- imm
            emit8(out, 0xc7);
            emitModrm(out, 0, mi.dst);
            emit32(out, static_cast<uint32_t>(mi.src1.disp));
        }
        return;
      case Op::Movb:
        if (mi.dst.isReg()) {
            emit8(out, 0x8a);
            emitModrm(out, mi.dst.reg, mi.src1);
        } else if (mi.src1.isReg()) {
            emit8(out, 0x88);
            emitModrm(out, mi.src1.reg, mi.dst);
        } else {
            emit8(out, 0xc6);
            emitModrm(out, 0, mi.dst);
            emit8(out, static_cast<uint8_t>(mi.src1.disp));
        }
        return;
      case Op::Lea:
        emit8(out, 0x8d);
        emitModrm(out, mi.dst.reg, mi.src1);
        return;
      case Op::Jmp:
        emit8(out, 0xe9);
        emit32(out, rel32_to(5));
        return;
      case Op::Jcc:
        emit8(out, 0x0f);
        emit8(out, static_cast<uint8_t>(
                  0x80 + kCondToCc[static_cast<unsigned>(mi.cond)]));
        emit32(out, rel32_to(6));
        return;
      case Op::Call:
        emit8(out, 0xe8);
        emit32(out, rel32_to(5));
        return;
      case Op::JmpInd:
        emit8(out, 0xff);
        emitModrm(out, 4, mi.src1);
        return;
      case Op::CallInd:
        emit8(out, 0xff);
        emitModrm(out, 2, mi.src1);
        return;
      case Op::VmExit:
        emit8(out, 0x0f);
        emit8(out, 0x0b);
        emit32(out, static_cast<uint32_t>(mi.src1.disp));
        return;
      case Op::Cmp:
      case Op::Test:
      case Op::Add:
      case Op::Sub:
      case Op::And:
      case Op::Or:
      case Op::Xor: {
        // For Cmp/Test the "dst" position is src1 (no write-back).
        const Operand &lhs = (mi.op == Op::Cmp || mi.op == Op::Test)
            ? mi.src1 : mi.dst;
        if (mi.op == Op::Test) {
            if (mi.src2.isReg()) {
                emit8(out, 0x85);
                emitModrm(out, mi.src2.reg, lhs);
            } else {
                emit8(out, 0xf7);
                emitModrm(out, 0, lhs);
                emit32(out, static_cast<uint32_t>(mi.src2.disp));
            }
            return;
        }
        const AluEnc *enc = findAluEnc(mi.op);
        hipstr_assert(enc != nullptr);
        if (mi.src2.isImm()) {
            if (fitsSigned(mi.src2.disp, 8)) {
                emit8(out, 0x83);
                emitModrm(out, enc->immExt, lhs);
                emit8(out, static_cast<uint8_t>(mi.src2.disp));
            } else {
                emit8(out, 0x81);
                emitModrm(out, enc->immExt, lhs);
                emit32(out, static_cast<uint32_t>(mi.src2.disp));
            }
        } else if (mi.src2.isMem()) {
            // r, rm form
            emit8(out, enc->rmOpcode);
            emitModrm(out, lhs.reg, mi.src2);
        } else {
            // rm, r form
            emit8(out, enc->mrOpcode);
            emitModrm(out, mi.src2.reg, lhs);
        }
        return;
      }
      case Op::Shl:
      case Op::Shr:
      case Op::Sar: {
        uint8_t ext;
        shiftExt(mi.op, ext);
        if (mi.src2.isImm()) {
            emit8(out, 0xc1);
            emitModrm(out, ext, mi.dst);
            emit8(out, static_cast<uint8_t>(mi.src2.disp));
        } else {
            emit8(out, 0x0f);
            emit8(out, static_cast<uint8_t>(0xb8 + (ext - 4)));
            emitModrm(out, mi.src2.reg, mi.dst);
        }
        return;
      }
      case Op::Mul:
        if (mi.src2.isImm()) {
            emit8(out, 0x69);
            emitModrm(out, mi.dst.reg, mi.dst);
            emit32(out, static_cast<uint32_t>(mi.src2.disp));
        } else {
            emit8(out, 0x0f);
            emit8(out, 0xaf);
            emitModrm(out, mi.dst.reg, mi.src2);
        }
        return;
      case Op::Divu:
        if (mi.src2.isImm()) {
            emit8(out, 0x0f);
            emit8(out, 0xf7);
            emitModrm(out, mi.dst.reg, mi.dst);
            emit32(out, static_cast<uint32_t>(mi.src2.disp));
        } else {
            emit8(out, 0x0f);
            emit8(out, 0xf6);
            emitModrm(out, mi.dst.reg, mi.src2);
        }
        return;
      case Op::MovHi:
        hipstr_panic("MovHi is not encodable on Cisc");
      default:
        hipstr_panic("encodeCisc: unhandled op %s", opName(mi.op));
    }
}

} // namespace

void
encodeCisc(const MachInst &mi, Addr pc, std::vector<uint8_t> &out)
{
    encodeCiscTo(mi, pc, out);
}

unsigned
sizeCisc(const MachInst &mi)
{
    ByteCount count;
    encodeCiscTo(mi, 0, count);
    return count.n;
}

bool
decodeCisc(const uint8_t *bytes, size_t len, Addr pc, MachInst &out)
{
    if (len == 0)
        return false;

    out = MachInst{};
    uint8_t opc = bytes[0];

    auto finish = [&](unsigned size) {
        out.size = static_cast<uint8_t>(size);
        return true;
    };

    // Single-byte opcodes. The long alias tail mirrors x86's dense
    // one-byte rows (flag ops, BCD adjusts, accumulator-immediate
    // ALU forms, adc/sbb, xchg): they keep unaligned decode alive the
    // way real x86 does, which is what populates the unintentional
    // gadget space the paper measures. Aliased semantics are
    // approximated with existing ops (decoder-only; the assembler
    // never emits them).
    switch (opc) {
      case 0x27: case 0x2f: case 0x37: case 0x3f: // daa/das/aaa/aas
      case 0x98: case 0x99: case 0x9b: case 0x9e: // cwde/cdq/wait/sahf
      case 0x9f: case 0xf5: case 0xf8: case 0xf9: // lahf/cmc/clc/stc
      case 0xfa: case 0xfb: case 0xfc: case 0xfd: // cli/sti/cld/std
        out.op = Op::Nop;
        return finish(1);
      case 0x90: out.op = Op::Nop; return finish(1);
      case 0xc3: out.op = Op::Ret; return finish(1);
      case 0xc2: // ret imm16 (decoder-only; stack-adjust approximated)
        if (len < 3)
            return false;
        out.op = Op::Ret;
        return finish(3);
      case 0xf4: out.op = Op::Halt; return finish(1);
      default: break;
    }
    if (opc >= 0x40 && opc <= 0x47) {
        // inc r (decoder-only alias; re-encodes as add r, 1)
        Operand r = Operand::makeReg(static_cast<Reg>(opc - 0x40));
        out.op = Op::Add;
        out.dst = r;
        out.src1 = r;
        out.src2 = Operand::makeImm(1);
        return finish(1);
    }
    if (opc >= 0x48 && opc <= 0x4f) {
        Operand r = Operand::makeReg(static_cast<Reg>(opc - 0x48));
        out.op = Op::Sub;
        out.dst = r;
        out.src1 = r;
        out.src2 = Operand::makeImm(1);
        return finish(1);
    }
    if (opc >= 0x50 && opc <= 0x57) {
        out.op = Op::Push;
        out.src1 = Operand::makeReg(static_cast<Reg>(opc - 0x50));
        return finish(1);
    }
    if (opc >= 0x58 && opc <= 0x5f) {
        out.op = Op::Pop;
        out.dst = Operand::makeReg(static_cast<Reg>(opc - 0x58));
        return finish(1);
    }
    if (opc == 0xcd) {
        if (len < 2 || bytes[1] != 0x80)
            return false;
        out.op = Op::Syscall;
        return finish(2);
    }
    if (opc >= 0xb8 && opc <= 0xbf) {
        if (len < 5)
            return false;
        out.op = Op::Mov;
        out.dst = Operand::makeReg(static_cast<Reg>(opc - 0xb8));
        out.src1 = Operand::makeImm(
            static_cast<int32_t>(read32le(bytes + 1)));
        return finish(5);
    }
    if (opc == 0x68) {
        if (len < 5)
            return false;
        out.op = Op::Push;
        out.src1 = Operand::makeImm(
            static_cast<int32_t>(read32le(bytes + 1)));
        return finish(5);
    }
    if (opc == 0x6a) { // push imm8 (decoder-only alias)
        if (len < 2)
            return false;
        out.op = Op::Push;
        out.src1 = Operand::makeImm(static_cast<int8_t>(bytes[1]));
        return finish(2);
    }
    {
        // Accumulator-immediate ALU rows: op ax, imm8 / imm32
        // (decoder-only aliases; adc/sbb approximate to add/sub).
        struct AccImm { uint8_t opc; Op op; bool wide; };
        static const AccImm acc_imm[] = {
            { 0x04, Op::Add, false }, { 0x05, Op::Add, true },
            { 0x0c, Op::Or, false },  { 0x0d, Op::Or, true },
            { 0x14, Op::Add, false }, { 0x15, Op::Add, true },
            { 0x1c, Op::Sub, false }, { 0x1d, Op::Sub, true },
            { 0x24, Op::And, false }, { 0x25, Op::And, true },
            { 0x2c, Op::Sub, false }, { 0x2d, Op::Sub, true },
            { 0x34, Op::Xor, false }, { 0x35, Op::Xor, true },
            { 0x3c, Op::Cmp, false }, { 0x3d, Op::Cmp, true },
            { 0xa8, Op::Test, false }, { 0xa9, Op::Test, true },
        };
        for (const AccImm &ai : acc_imm) {
            if (ai.opc != opc)
                continue;
            unsigned imm_len = ai.wide ? 4 : 1;
            if (len < 1 + imm_len)
                return false;
            int32_t imm = ai.wide
                ? static_cast<int32_t>(read32le(bytes + 1))
                : static_cast<int32_t>(static_cast<int8_t>(bytes[1]));
            Operand ax = Operand::makeReg(cisc::AX);
            out.op = ai.op;
            if (ai.op == Op::Cmp || ai.op == Op::Test) {
                out.src1 = ax;
            } else {
                out.dst = ax;
                out.src1 = ax;
            }
            out.src2 = Operand::makeImm(imm);
            return finish(1 + imm_len);
        }
    }
    if (opc >= 0x10 && opc <= 0x13) { // adc -> add alias
        if (!((opc & 1) ? true : true))
            return false;
        unsigned reg_f;
        Operand rm;
        int ex = decodeModrm(bytes + 1, len - 1, reg_f, rm);
        if (ex < 0)
            return false;
        Operand reg = Operand::makeReg(static_cast<Reg>(reg_f));
        out.op = Op::Add;
        if (opc <= 0x11) {
            out.dst = rm;
            out.src1 = rm;
            out.src2 = reg;
        } else {
            out.dst = reg;
            out.src1 = reg;
            out.src2 = rm;
        }
        return finish(2 + ex);
    }
    if (opc >= 0x18 && opc <= 0x1b) { // sbb -> sub alias
        unsigned reg_f;
        Operand rm;
        int ex = decodeModrm(bytes + 1, len - 1, reg_f, rm);
        if (ex < 0)
            return false;
        Operand reg = Operand::makeReg(static_cast<Reg>(reg_f));
        out.op = Op::Sub;
        if (opc <= 0x19) {
            out.dst = rm;
            out.src1 = rm;
            out.src2 = reg;
        } else {
            out.dst = reg;
            out.src1 = reg;
            out.src2 = rm;
        }
        return finish(2 + ex);
    }
    if (opc >= 0x91 && opc <= 0x97) { // xchg ax, r -> mov alias
        out.op = Op::Mov;
        out.dst = Operand::makeReg(static_cast<Reg>(opc - 0x90));
        out.src1 = Operand::makeReg(cisc::AX);
        return finish(1);
    }
    if (opc == 0xe8 || opc == 0xe9) {
        if (len < 5)
            return false;
        out.op = (opc == 0xe8) ? Op::Call : Op::Jmp;
        out.target = pc + 5 + read32le(bytes + 1);
        return finish(5);
    }
    if (opc == 0xeb) {
        if (len < 2)
            return false;
        out.op = Op::Jmp;
        out.target = pc + 2 +
            static_cast<uint32_t>(
                static_cast<int32_t>(static_cast<int8_t>(bytes[1])));
        return finish(2);
    }
    if (opc >= 0x70 && opc <= 0x7f) {
        Cond c;
        if (!ccToCond(opc & 0x0f, c) || len < 2)
            return false;
        out.op = Op::Jcc;
        out.cond = c;
        out.target = pc + 2 +
            static_cast<uint32_t>(
                static_cast<int32_t>(static_cast<int8_t>(bytes[1])));
        return finish(2);
    }

    // ModRM-based single-byte opcodes.
    unsigned reg_field;
    Operand rm_op;
    auto modrm_decode = [&](int &extra) {
        extra = decodeModrm(bytes + 1, len - 1, reg_field, rm_op);
        return extra >= 0;
    };
    int extra;

    switch (opc) {
      case 0x89: // mov rm, r
        if (!modrm_decode(extra))
            return false;
        out.op = Op::Mov;
        out.dst = rm_op;
        out.src1 = Operand::makeReg(static_cast<Reg>(reg_field));
        return finish(2 + extra);
      case 0x8b: // mov r, rm
        if (!modrm_decode(extra))
            return false;
        out.op = Op::Mov;
        out.dst = Operand::makeReg(static_cast<Reg>(reg_field));
        out.src1 = rm_op;
        return finish(2 + extra);
      case 0xc7: // mov rm, imm32
        if (!modrm_decode(extra) || reg_field != 0)
            return false;
        if (len < static_cast<size_t>(2 + extra + 4))
            return false;
        out.op = Op::Mov;
        out.dst = rm_op;
        out.src1 = Operand::makeImm(
            static_cast<int32_t>(read32le(bytes + 2 + extra)));
        return finish(2 + extra + 4);
      case 0x8a: // movb r, m8
        if (!modrm_decode(extra) || !rm_op.isMem())
            return false;
        out.op = Op::Movb;
        out.dst = Operand::makeReg(static_cast<Reg>(reg_field));
        out.src1 = rm_op;
        return finish(2 + extra);
      case 0x88: // movb m8, r
        if (!modrm_decode(extra) || !rm_op.isMem())
            return false;
        out.op = Op::Movb;
        out.dst = rm_op;
        out.src1 = Operand::makeReg(static_cast<Reg>(reg_field));
        return finish(2 + extra);
      case 0xc6: // movb m8, imm8
        if (!modrm_decode(extra) || reg_field != 0 || !rm_op.isMem())
            return false;
        if (len < static_cast<size_t>(2 + extra) + 1)
            return false;
        out.op = Op::Movb;
        out.dst = rm_op;
        out.src1 = Operand::makeImm(bytes[2 + extra]);
        return finish(2 + extra + 1);
      case 0x8d: // lea r, m
        if (!modrm_decode(extra) || !rm_op.isMem())
            return false;
        out.op = Op::Lea;
        out.dst = Operand::makeReg(static_cast<Reg>(reg_field));
        out.src1 = rm_op;
        return finish(2 + extra);
      case 0x84: // test rm8, r8 (decoder-only alias)
      case 0x85: // test rm, r
        if (!modrm_decode(extra))
            return false;
        out.op = Op::Test;
        out.src1 = rm_op;
        out.src2 = Operand::makeReg(static_cast<Reg>(reg_field));
        return finish(2 + extra);
      case 0x86: // xchg rm8, r (decoder-only alias -> mov)
      case 0x87: // xchg rm, r
        if (!modrm_decode(extra))
            return false;
        out.op = Op::Mov;
        out.dst = rm_op;
        out.src1 = Operand::makeReg(static_cast<Reg>(reg_field));
        return finish(2 + extra);
      case 0xf7: // test rm, imm32
        if (!modrm_decode(extra) || reg_field != 0)
            return false;
        if (len < static_cast<size_t>(2 + extra + 4))
            return false;
        out.op = Op::Test;
        out.src1 = rm_op;
        out.src2 = Operand::makeImm(
            static_cast<int32_t>(read32le(bytes + 2 + extra)));
        return finish(2 + extra + 4);
      case 0x80: // group 1 byte-imm (decoder-only alias)
      case 0x81:
      case 0x83: { // ALU rm, imm
        if (!modrm_decode(extra))
            return false;
        const AluEnc *enc = findAluByExt(static_cast<uint8_t>(reg_field));
        if (enc == nullptr)
            return false;
        unsigned imm_size = (opc == 0x81) ? 4 : 1;
        // 0x80 reuses the byte-immediate path below.
        if (len < static_cast<size_t>(2 + extra) + imm_size)
            return false;
        int32_t imm = (opc == 0x81)
            ? static_cast<int32_t>(read32le(bytes + 2 + extra))
            : static_cast<int32_t>(
                  static_cast<int8_t>(bytes[2 + extra]));
        out.op = enc->op;
        if (enc->op == Op::Cmp) {
            out.src1 = rm_op;
        } else {
            out.dst = rm_op;
            out.src1 = rm_op;
        }
        out.src2 = Operand::makeImm(imm);
        return finish(2 + extra + imm_size);
      }
      case 0xc1: { // shift rm, imm8
        if (!modrm_decode(extra))
            return false;
        Op shift_op;
        if (!extToShift(static_cast<uint8_t>(reg_field), shift_op))
            return false;
        if (len < static_cast<size_t>(2 + extra) + 1)
            return false;
        out.op = shift_op;
        out.dst = rm_op;
        out.src1 = rm_op;
        out.src2 = Operand::makeImm(bytes[2 + extra]);
        return finish(2 + extra + 1);
      }
      case 0x69: { // mul r, rm, imm32
        if (!modrm_decode(extra))
            return false;
        if (len < static_cast<size_t>(2 + extra + 4))
            return false;
        out.op = Op::Mul;
        out.dst = Operand::makeReg(static_cast<Reg>(reg_field));
        out.src1 = rm_op;
        out.src2 = Operand::makeImm(
            static_cast<int32_t>(read32le(bytes + 2 + extra)));
        return finish(2 + extra + 4);
      }
      case 0xff: // group 5: inc/dec/call/jmp/push rm
        if (!modrm_decode(extra))
            return false;
        switch (reg_field) {
          case 0: // inc rm (decoder-only alias)
          case 1: // dec rm
            out.op = reg_field == 0 ? Op::Add : Op::Sub;
            out.dst = rm_op;
            out.src1 = rm_op;
            out.src2 = Operand::makeImm(1);
            return finish(2 + extra);
          case 2:
            if (!rm_op.isReg())
                return false;
            out.op = Op::CallInd;
            out.src1 = rm_op;
            return finish(2 + extra);
          case 4:
            if (!rm_op.isReg())
                return false;
            out.op = Op::JmpInd;
            out.src1 = rm_op;
            return finish(2 + extra);
          case 6: // push rm (decoder-only alias)
            out.op = Op::Push;
            out.src1 = rm_op;
            return finish(2 + extra);
          default:
            return false;
        }
      default:
        break;
    }

    // ALU rm,r / r,rm groups.
    if (const AluEnc *enc = findAluByMr(opc)) {
        if (!modrm_decode(extra))
            return false;
        out.op = enc->op;
        if (enc->op == Op::Cmp) {
            out.src1 = rm_op;
        } else {
            out.dst = rm_op;
            out.src1 = rm_op;
        }
        out.src2 = Operand::makeReg(static_cast<Reg>(reg_field));
        return finish(2 + extra);
    }
    if (const AluEnc *enc = findAluByRm(opc)) {
        if (!modrm_decode(extra))
            return false;
        Operand reg = Operand::makeReg(static_cast<Reg>(reg_field));
        out.op = enc->op;
        if (enc->op == Op::Cmp) {
            out.src1 = reg;
        } else {
            out.dst = reg;
            out.src1 = reg;
        }
        out.src2 = rm_op;
        return finish(2 + extra);
    }

    // Two-byte 0x0F escape group.
    if (opc == 0x0f) {
        if (len < 2)
            return false;
        uint8_t sub = bytes[1];
        if (sub >= 0x80 && sub <= 0x8f) {
            Cond c;
            if (!ccToCond(sub & 0x0f, c) || len < 6)
                return false;
            out.op = Op::Jcc;
            out.cond = c;
            out.target = pc + 6 + read32le(bytes + 2);
            return finish(6);
        }
        if (sub == 0x0b) {
            if (len < 6)
                return false;
            out.op = Op::VmExit;
            out.src1 = Operand::makeImm(
                static_cast<int32_t>(read32le(bytes + 2)));
            return finish(6);
        }
        if (sub == 0xaf || sub == 0xf6) {
            extra = decodeModrm(bytes + 2, len - 2, reg_field, rm_op);
            if (extra < 0)
                return false;
            Operand dreg = Operand::makeReg(static_cast<Reg>(reg_field));
            out.op = (sub == 0xaf) ? Op::Mul : Op::Divu;
            out.dst = dreg;
            out.src1 = dreg;
            out.src2 = rm_op;
            return finish(3 + extra);
        }
        if (sub == 0xf7) { // divu r, imm32
            extra = decodeModrm(bytes + 2, len - 2, reg_field, rm_op);
            if (extra < 0 || !rm_op.isReg() ||
                rm_op.reg != static_cast<Reg>(reg_field)) {
                return false;
            }
            if (len < static_cast<size_t>(3 + extra + 4))
                return false;
            Operand dreg = Operand::makeReg(static_cast<Reg>(reg_field));
            out.op = Op::Divu;
            out.dst = dreg;
            out.src1 = dreg;
            out.src2 = Operand::makeImm(
                static_cast<int32_t>(read32le(bytes + 3 + extra)));
            return finish(3 + extra + 4);
        }
        if (sub >= 0xb8 && sub <= 0xbb) { // variable shift
            Op shift_op;
            if (!extToShift(static_cast<uint8_t>(4 + (sub - 0xb8)),
                            shift_op)) {
                return false;
            }
            extra = decodeModrm(bytes + 2, len - 2, reg_field, rm_op);
            if (extra < 0 || !rm_op.isReg())
                return false;
            out.op = shift_op;
            out.dst = rm_op;
            out.src1 = rm_op;
            out.src2 = Operand::makeReg(static_cast<Reg>(reg_field));
            return finish(3 + extra);
        }
        return false;
    }

    return false;
}

} // namespace detail
} // namespace hipstr
