/**
 * @file
 * Minimal x86-64 machine-code emitter for the trace JIT.
 *
 * Covers exactly the instruction forms the trace compiler lowers to:
 * 32-bit mov/lea/ALU/cmp/test in register and [base+disp] memory
 * forms, [base+index] word and byte loads/stores against the
 * guest-memory base, shifts by immediate and by cl, imul/div, setcc
 * to a memory byte, 64-bit counter arithmetic, push/pop/call/ret, and
 * rel32 branches through a label/fixup table. Nothing here is clever:
 * each method appends one canonically-encoded instruction to a byte
 * buffer, and finalize() patches the recorded rel32 fixups. clear()
 * empties the buffers but keeps their capacity, so the engine reuses
 * one emitter per thread instead of allocating afresh per compile.
 *
 * Register names use raw x86 encodings (RAX=0 ... R15=15); the
 * compiler layer owns the pinned-register convention.
 */

#ifndef HIPSTR_VM_JIT_EMITTER_HH
#define HIPSTR_VM_JIT_EMITTER_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "support/logging.hh"

namespace hipstr::jit
{

/** x86-64 register encodings. */
enum HostReg : uint8_t
{
    RAX = 0, RCX = 1, RDX = 2, RBX = 3,
    RSP = 4, RBP = 5, RSI = 6, RDI = 7,
    R8 = 8, R9 = 9, R10 = 10, R11 = 11,
    R12 = 12, R13 = 13, R14 = 14, R15 = 15,
};

/** x86 condition-code nibbles (Jcc / SETcc opcodes add these). */
enum class Cc : uint8_t
{
    O = 0x0, No = 0x1, B = 0x2, Ae = 0x3, E = 0x4, Ne = 0x5,
    Be = 0x6, A = 0x7, S = 0x8, Ns = 0x9, L = 0xc, Ge = 0xd,
    Le = 0xe, G = 0xf,
};

/** [base + disp] or [base + index*1 + disp] memory operand. */
struct Mem
{
    uint8_t base;
    int32_t disp = 0;
    bool hasIndex = false;
    uint8_t index = 0;

    Mem(uint8_t b, int32_t d) : base(b), disp(d) {}
    Mem(uint8_t b, uint8_t idx, int32_t d)
        : base(b), disp(d), hasIndex(true), index(idx)
    {
    }
};

class Emitter
{
  public:
    std::vector<uint8_t> code;

    size_t size() const { return code.size(); }

    /**
     * Forget the previous function but keep every buffer's capacity,
     * so a reused emitter stops growing once it has held the largest
     * body it is asked for.
     */
    void
    clear()
    {
        code.clear();
        _labels.clear();
        _fixups.clear();
    }

    /** Labels + rel32 fixups. @{ */
    int
    newLabel()
    {
        _labels.push_back(-1);
        return static_cast<int>(_labels.size()) - 1;
    }

    void
    bind(int label)
    {
        hipstr_assert(_labels[static_cast<size_t>(label)] < 0);
        _labels[static_cast<size_t>(label)] =
            static_cast<int64_t>(code.size());
    }

    bool
    bound(int label) const
    {
        return _labels[static_cast<size_t>(label)] >= 0;
    }

    /** Patch every recorded rel32 against its bound label. */
    void
    finalize()
    {
        for (const Fixup &f : _fixups) {
            int64_t target = _labels[static_cast<size_t>(f.label)];
            hipstr_assert(target >= 0);
            int64_t rel = target - (static_cast<int64_t>(f.at) + 4);
            hipstr_assert(rel >= INT32_MIN && rel <= INT32_MAX);
            int32_t rel32 = static_cast<int32_t>(rel);
            std::memcpy(&code[f.at], &rel32, 4);
        }
        _fixups.clear();
    }
    /** @} */

    /** mov r32, r32 */
    void movRR32(uint8_t dst, uint8_t src) { rr(0x8b, dst, src, 0); }
    /** mov r64, r64 */
    void movRR64(uint8_t dst, uint8_t src) { rr(0x8b, dst, src, 1); }
    /** mov r32, imm32 (zero-extends) */
    void
    movRI32(uint8_t dst, uint32_t imm)
    {
        rexOpt(0, 0, 0, dst);
        u8(0xb8 + (dst & 7));
        u32(imm);
    }
    /** mov r64, imm64 */
    void
    movRI64(uint8_t dst, uint64_t imm)
    {
        rex(1, 0, 0, dst);
        u8(0xb8 + (dst & 7));
        u64(imm);
    }
    /** mov r32, [mem] */
    void movRM32(uint8_t dst, const Mem &m) { rm(0x8b, dst, m, 0); }
    /** mov r64, [mem] */
    void movRM64(uint8_t dst, const Mem &m) { rm(0x8b, dst, m, 1); }
    /** mov [mem], r32 */
    void movMR32(const Mem &m, uint8_t src) { rm(0x89, src, m, 0); }
    /** mov dword [mem], imm32 */
    void
    movMI32(const Mem &m, uint32_t imm)
    {
        rm(0xc7, 0, m, 0);
        u32(imm);
    }
    /**
     * mov byte [mem], r8 — stores the low byte of @p src. Without a
     * REX prefix, register encodings 4-7 name ah/ch/dh/bh, not
     * spl/bpl/sil/dil, so a REX is forced for them.
     */
    void
    movMR8(const Mem &m, uint8_t src)
    {
        if (src >= 4 && src < 8)
            rex(0, src, m.hasIndex ? m.index : 0, m.base);
        else
            memRex(0, src, m);
        u8(0x88);
        modRmMem(src, m);
    }
    /** mov byte [mem], imm8 */
    void
    movMI8(const Mem &m, uint8_t imm)
    {
        rm(0xc6, 0, m, 0);
        u8(imm);
    }
    /** movzx r32, byte [mem] */
    void
    movzxRM8(uint8_t dst, const Mem &m)
    {
        memRex(0, dst, m);
        u8(0x0f);
        u8(0xb6);
        modRmMem(dst, m);
    }
    /** lea r32, [mem] (address math mod 2^32, flags untouched) */
    void leaRM32(uint8_t dst, const Mem &m) { rm(0x8d, dst, m, 0); }

    /**
     * 32-bit ALU, "reg <- reg op rm" direction. @p load is the
     * 0x03-family opcode: add 03, or 0b, and 23, sub 2b, xor 33,
     * cmp 3b. @{
     */
    void aluRR32(uint8_t load, uint8_t dst, uint8_t src) { rr(load, dst, src, 0); }
    void aluRM32(uint8_t load, uint8_t dst, const Mem &m) { rm(load, dst, m, 0); }
    /** @} */
    /** 32-bit ALU with imm32: 81 /n (add 0, or 1, and 4, sub 5, xor 6, cmp 7). */
    void
    aluRI32(uint8_t n, uint8_t dst, uint32_t imm)
    {
        rr(0x81, n, dst, 0);
        u32(imm);
    }
    void
    aluMI32(uint8_t n, const Mem &m, uint32_t imm)
    {
        rm(0x81, n, m, 0);
        u32(imm);
    }

    /** test r32, r32 */
    void testRR32(uint8_t a, uint8_t b) { rr(0x85, b, a, 0); }
    /** test r32, imm32 */
    void
    testRI32(uint8_t r, uint32_t imm)
    {
        rr(0xf7, 0, r, 0);
        u32(imm);
    }
    /** test r32, [mem] (flags of rm & reg; symmetric) */
    void testRM32(uint8_t r, const Mem &m) { rm(0x85, r, m, 0); }
    /** cmp r32, [mem] */
    void cmpRM32(uint8_t r, const Mem &m) { rm(0x3b, r, m, 0); }
    /** cmp r64, [mem] */
    void cmpRM64(uint8_t r, const Mem &m) { rm(0x3b, r, m, 1); }
    /** cmp byte [mem], imm8 */
    void
    cmpM8I(const Mem &m, uint8_t imm)
    {
        memRex(0, 0, m);
        u8(0x80);
        modRmMem(7, m);
        u8(imm);
    }

    /** shl/shr/sar r32, imm (n: shl 4, shr 5, sar 7) @{ */
    void
    shiftRI32(uint8_t n, uint8_t r, uint8_t count)
    {
        rr(0xc1, n, r, 0);
        u8(count);
    }
    void shiftRCl32(uint8_t n, uint8_t r) { rr(0xd3, n, r, 0); }
    /** @} */

    /** imul r32, r32 */
    void
    imulRR32(uint8_t dst, uint8_t src)
    {
        rex(0, dst, 0, src);
        u8(0x0f);
        u8(0xaf);
        modRmReg(dst, src);
    }
    /** imul r32, r32, imm32 */
    void
    imulRRI32(uint8_t dst, uint8_t src, uint32_t imm)
    {
        rr(0x69, dst, src, 0);
        u32(imm);
    }
    /** div r32 (unsigned edx:eax / r) */
    void divR32(uint8_t r) { rr(0xf7, 6, r, 0); }

    /** setcc byte [mem] */
    void
    setccM8(Cc cc, const Mem &m)
    {
        memRex(0, 0, m);
        u8(0x0f);
        u8(0x90 + static_cast<uint8_t>(cc));
        modRmMem(0, m);
    }

    /** inc qword [mem] */
    void incM64(const Mem &m) { rm(0xff, 0, m, 1); }
    /** add qword [mem], imm32 (sign-extended) */
    void
    addMI64(const Mem &m, uint32_t imm)
    {
        hipstr_assert(imm < 0x80000000u);
        rm(0x81, 0, m, 1);
        u32(imm);
    }

    /** push/pop r64 @{ */
    void
    pushR(uint8_t r)
    {
        rexOpt(0, 0, 0, r);
        u8(0x50 + (r & 7));
    }
    void
    popR(uint8_t r)
    {
        rexOpt(0, 0, 0, r);
        u8(0x58 + (r & 7));
    }
    /** @} */

    /** sub/add rsp, imm8 @{ */
    void
    subRsp8(uint8_t imm)
    {
        rex(1, 0, 0, RSP);
        u8(0x83);
        modRmReg(5, RSP);
        u8(imm);
    }
    void
    addRsp8(uint8_t imm)
    {
        rex(1, 0, 0, RSP);
        u8(0x83);
        modRmReg(0, RSP);
        u8(imm);
    }
    /** @} */

    /** call r64 */
    void
    callR(uint8_t r)
    {
        rexOpt(0, 0, 0, r);
        u8(0xff);
        modRmReg(2, r);
    }
    void ret() { u8(0xc3); }

    /** jcc/jmp rel32 to a label @{ */
    void
    jcc(Cc cc, int label)
    {
        u8(0x0f);
        u8(0x80 + static_cast<uint8_t>(cc));
        rel32(label);
    }
    void
    jmp(int label)
    {
        u8(0xe9);
        rel32(label);
    }
    /** call rel32 to a label (intra-trace stub calls) */
    void
    callLabel(int label)
    {
        u8(0xe8);
        rel32(label);
    }
    /** @} */

  private:
    struct Fixup
    {
        size_t at;
        int label;
    };

    std::vector<int64_t> _labels;
    std::vector<Fixup> _fixups;

    void u8(uint8_t b) { code.push_back(b); }
    void
    u32(uint32_t v)
    {
        size_t at = code.size();
        code.resize(at + 4);
        std::memcpy(&code[at], &v, 4);
    }
    void
    u64(uint64_t v)
    {
        size_t at = code.size();
        code.resize(at + 8);
        std::memcpy(&code[at], &v, 8);
    }

    void
    rel32(int label)
    {
        _fixups.push_back({code.size(), label});
        u32(0);
    }

    void
    rex(uint8_t w, uint8_t r, uint8_t x, uint8_t b)
    {
        u8(0x40 | (w << 3) | ((r >> 3) << 2) | ((x >> 3) << 1) |
           (b >> 3));
    }

    /** REX only when needed (extended regs or W). */
    void
    rexOpt(uint8_t w, uint8_t r, uint8_t x, uint8_t b)
    {
        if (w || r >= 8 || x >= 8 || b >= 8)
            rex(w, r, x, b);
    }

    void modRmReg(uint8_t reg, uint8_t rm2)
    {
        u8(0xc0 | ((reg & 7) << 3) | (rm2 & 7));
    }

    void
    memRex(uint8_t w, uint8_t reg, const Mem &m)
    {
        rexOpt(w, reg, m.hasIndex ? m.index : 0, m.base);
    }

    /** mod/rm (+SIB, +disp) for a Mem operand. */
    void
    modRmMem(uint8_t reg, const Mem &m)
    {
        const uint8_t base7 = m.base & 7;
        const bool needSib = m.hasIndex || base7 == 4;
        // rbp/r13 as base cannot use the no-disp encoding.
        uint8_t mod;
        if (m.disp == 0 && base7 != 5)
            mod = 0;
        else if (m.disp >= -128 && m.disp <= 127)
            mod = 1;
        else
            mod = 2;
        u8((mod << 6) | ((reg & 7) << 3) | (needSib ? 4 : base7));
        if (needSib) {
            hipstr_assert(!m.hasIndex || (m.index & 7) != 4);
            u8(((m.hasIndex ? (m.index & 7) : 4) << 3) | base7);
        }
        if (mod == 1)
            u8(static_cast<uint8_t>(m.disp));
        else if (mod == 2)
            u32(static_cast<uint32_t>(m.disp));
    }

    /** opcode + modrm reg form (also imm-group /n forms). */
    void
    rr(uint8_t opcode, uint8_t reg, uint8_t rm2, uint8_t w)
    {
        rexOpt(w, reg, 0, rm2);
        u8(opcode);
        modRmReg(reg, rm2);
    }

    /** opcode + modrm mem form. */
    void
    rm(uint8_t opcode, uint8_t reg, const Mem &m, uint8_t w)
    {
        memRex(w, reg, m);
        u8(opcode);
        modRmMem(reg, m);
    }
};

} // namespace hipstr::jit

#endif // HIPSTR_VM_JIT_EMITTER_HH
