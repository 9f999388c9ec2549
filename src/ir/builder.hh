/**
 * @file
 * Fluent construction API for IR modules. All nine synthetic workloads
 * and most tests author their programs through this builder.
 */

#ifndef HIPSTR_IR_BUILDER_HH
#define HIPSTR_IR_BUILDER_HH

#include <initializer_list>
#include <string>
#include <vector>

#include "ir/ir.hh"

namespace hipstr
{

/**
 * Builds one IrModule. Typical usage:
 *
 * @code
 *   IrModule m;
 *   IrBuilder b(m);
 *   uint32_t fn = b.declareFunction("sum", 2);
 *   b.beginFunction(fn);
 *   ValueId r = b.add(b.param(0), b.param(1));
 *   b.ret(r);
 *   b.endFunction();
 * @endcode
 *
 * The builder keeps a current function and current block; instructions
 * append to the current block. Blocks must be explicitly terminated
 * (br/condBr/ret) before switching away, which endFunction() verifies.
 */
class IrBuilder
{
  public:
    explicit IrBuilder(IrModule &module) : _module(module) {}

    /** Module-level declarations. @{ */
    uint32_t addGlobal(const std::string &name, uint32_t size,
                       uint32_t align = 4,
                       std::vector<uint8_t> init = {});
    /** Convenience: global initialized from 32-bit words. */
    uint32_t addGlobalWords(const std::string &name,
                            const std::vector<uint32_t> &words);
    uint32_t declareFunction(const std::string &name,
                             unsigned num_params);
    void setEntry(uint32_t fn) { _module.entryFunc = fn; }
    /** @} */

    /** Function construction. @{ */
    void beginFunction(uint32_t fn);
    void endFunction();
    uint32_t newBlock();
    void setBlock(uint32_t bb);
    ValueId param(unsigned i);
    ValueId newValue();
    uint32_t addFrameObject(const std::string &name, uint32_t size,
                            uint32_t align = 4);
    /** @} */

    /** Value-producing instructions. @{ */
    ValueId constI(int32_t v);
    ValueId copy(ValueId src);
    ValueId frameAddr(uint32_t obj, int32_t off = 0);
    ValueId globalAddr(uint32_t global, int32_t off = 0);
    ValueId funcAddr(uint32_t fn);
    ValueId load(ValueId addr, int32_t off = 0);
    ValueId load8(ValueId addr, int32_t off = 0);
    ValueId binop(IrOp op, ValueId a, ValueId b);
    ValueId binopI(IrOp op, ValueId a, int32_t imm);
    ValueId add(ValueId a, ValueId b) { return binop(IrOp::Add, a, b); }
    ValueId sub(ValueId a, ValueId b) { return binop(IrOp::Sub, a, b); }
    ValueId and_(ValueId a, ValueId b) { return binop(IrOp::And, a, b); }
    ValueId or_(ValueId a, ValueId b) { return binop(IrOp::Or, a, b); }
    ValueId xor_(ValueId a, ValueId b) { return binop(IrOp::Xor, a, b); }
    ValueId shl(ValueId a, ValueId b) { return binop(IrOp::Shl, a, b); }
    ValueId shr(ValueId a, ValueId b) { return binop(IrOp::Shr, a, b); }
    ValueId sar(ValueId a, ValueId b) { return binop(IrOp::Sar, a, b); }
    ValueId mul(ValueId a, ValueId b) { return binop(IrOp::Mul, a, b); }
    ValueId divu(ValueId a, ValueId b)
    {
        return binop(IrOp::Divu, a, b);
    }
    ValueId addI(ValueId a, int32_t i) { return binopI(IrOp::Add, a, i); }
    ValueId subI(ValueId a, int32_t i) { return binopI(IrOp::Sub, a, i); }
    ValueId andI(ValueId a, int32_t i) { return binopI(IrOp::And, a, i); }
    ValueId orI(ValueId a, int32_t i) { return binopI(IrOp::Or, a, i); }
    ValueId xorI(ValueId a, int32_t i) { return binopI(IrOp::Xor, a, i); }
    ValueId shlI(ValueId a, int32_t i) { return binopI(IrOp::Shl, a, i); }
    ValueId shrI(ValueId a, int32_t i) { return binopI(IrOp::Shr, a, i); }
    ValueId sarI(ValueId a, int32_t i) { return binopI(IrOp::Sar, a, i); }
    ValueId mulI(ValueId a, int32_t i) { return binopI(IrOp::Mul, a, i); }
    ValueId divuI(ValueId a, int32_t i)
    {
        return binopI(IrOp::Divu, a, i);
    }
    ValueId call(uint32_t fn, std::initializer_list<ValueId> args);
    ValueId callInd(ValueId fp, std::initializer_list<ValueId> args);
    ValueId syscall(std::initializer_list<ValueId> args);
    /** @} */

    /** Non-value instructions. @{ */
    void store(ValueId addr, ValueId val, int32_t off = 0);
    void store8(ValueId addr, ValueId val, int32_t off = 0);
    /** Write into an existing value (mutable-value IR). */
    void assign(ValueId dst, ValueId src);
    void assignConst(ValueId dst, int32_t v);
    /** dst = a op b into an existing value. */
    void assignBinop(IrOp op, ValueId dst, ValueId a, ValueId b);
    void assignBinopI(IrOp op, ValueId dst, ValueId a, int32_t imm);
    void br(uint32_t bb);
    void condBr(Cond c, ValueId a, ValueId b, uint32_t bb_true,
                uint32_t bb_false);
    void condBrI(Cond c, ValueId a, int32_t imm, uint32_t bb_true,
                 uint32_t bb_false);
    void ret(ValueId v = kNoValue);
    void callVoid(uint32_t fn, std::initializer_list<ValueId> args);
    void syscallVoid(std::initializer_list<ValueId> args);
    /** @} */

    /**
     * Non-local control flow (Section 5.3's setjmp/longjmp support).
     * @p buf must point at a 40-byte jmp_buf (10 words: sp, resume
     * address, delivered value, callee-saved registers). Returns the
     * value observed at the resume point: 0 on the initial fall
     * through, the longJmp value (coerced to >= 1) after a jump.
     * Opens and enters the resume block.
     */
    ValueId setJmp(ValueId buf);
    /** Jump to the continuation in @p buf, delivering @p val. */
    void longJmp(ValueId buf, ValueId val);

    /** Convenience: emit WriteWord(v) through the syscall interface. */
    void emitWriteWord(ValueId v);
    /** Convenience: emit Exit(code). */
    void emitExit(ValueId code);

    IrModule &module() { return _module; }

  private:
    IrInst &append(IrInst inst);
    IrFunction &fn();

    IrModule &_module;
    uint32_t _curFn = 0;
    uint32_t _curBlock = 0;
    bool _inFunction = false;
};

} // namespace hipstr

#endif // HIPSTR_IR_BUILDER_HH
